//! Serializable detector snapshots for the serving layer.
//!
//! [`ServableDetector`] closes the streaming family over one concrete
//! enum so a fitted detector — *including* its in-flight per-trace state
//! (CUSUM sums, EWMA levels, ring-buffer windows) — can be written to a
//! byte stream and restored elsewhere. The wire format is the tag byte
//! of the variant followed by the variant's own `encode`, all `f64`s as
//! raw bit patterns, so a restored detector scores **bitwise
//! identically** to the original and continues a trace exactly where the
//! snapshot left it. `crates/ad/tests/stream_equivalence.rs` and the
//! core checkpoint tests pin this.

use super::adapters::{StreamingAe, StreamingKnn, StreamingLof};
use super::cusum::{CusumDetector, PageHinkleyDetector};
use super::ewma::StreamingEwma;
use super::histogram::HistogramDetector;
use super::spectral::SpectralResidualDetector;
use super::StreamingDetector;
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};

/// Every streaming detector the serving layer can host, as one
/// serializable value. Construct via `From` impls or
/// `exathlon_core::replay::build_servable`.
#[derive(Debug, Clone)]
pub enum ServableDetector {
    /// EWMA forecaster state ([`StreamingEwma`]).
    Ewma(StreamingEwma),
    /// Two-sided CUSUM drift detector.
    Cusum(CusumDetector),
    /// Page-Hinkley drift detector.
    PageHinkley(PageHinkleyDetector),
    /// Per-feature histogram rarity threshold.
    Histogram(HistogramDetector),
    /// Spectral-residual saliency over a ring window.
    SpectralResidual(SpectralResidualDetector),
    /// Autoencoder scored over a sliding ring window.
    Ae(StreamingAe),
    /// Per-record kNN against a frozen reference set.
    Knn(StreamingKnn),
    /// Per-record LOF against a frozen reference set.
    Lof(StreamingLof),
}

impl ServableDetector {
    /// The variant's stable wire tag.
    fn tag(&self) -> u8 {
        match self {
            Self::Ewma(_) => 0,
            Self::Cusum(_) => 1,
            Self::PageHinkley(_) => 2,
            Self::Histogram(_) => 3,
            Self::SpectralResidual(_) => 4,
            Self::Ae(_) => 5,
            Self::Knn(_) => 6,
            Self::Lof(_) => 7,
        }
    }

    /// The record width the detector scores, or `None` when it takes
    /// any width (spectral residual aggregates each record to one value).
    /// A detector with no fitted state reports `Some(0)`.
    pub fn width(&self) -> Option<usize> {
        match self {
            Self::Ewma(d) => Some(d.dims()),
            Self::Cusum(d) => Some(d.dims()),
            Self::PageHinkley(d) => Some(d.dims()),
            Self::Histogram(d) => Some(d.dims()),
            Self::SpectralResidual(_) => None,
            Self::Ae(d) => Some(d.dims()),
            Self::Knn(d) => Some(d.dims()),
            Self::Lof(d) => Some(d.dims()),
        }
    }

    /// Serialize the detector — variant tag, then the variant's own
    /// state, bitwise.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.tag());
        match self {
            Self::Ewma(d) => d.encode(w),
            Self::Cusum(d) => d.encode(w),
            Self::PageHinkley(d) => d.encode(w),
            Self::Histogram(d) => d.encode(w),
            Self::SpectralResidual(d) => d.encode(w),
            Self::Ae(d) => d.encode(w),
            Self::Knn(d) => d.encode(w),
            Self::Lof(d) => d.encode(w),
        }
    }

    /// Decode a detector written by [`ServableDetector::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Self::Ewma(StreamingEwma::decode(r)?)),
            1 => Ok(Self::Cusum(CusumDetector::decode(r)?)),
            2 => Ok(Self::PageHinkley(PageHinkleyDetector::decode(r)?)),
            3 => Ok(Self::Histogram(HistogramDetector::decode(r)?)),
            4 => Ok(Self::SpectralResidual(SpectralResidualDetector::decode(r)?)),
            5 => Ok(Self::Ae(StreamingAe::decode(r)?)),
            6 => Ok(Self::Knn(StreamingKnn::decode(r)?)),
            7 => Ok(Self::Lof(StreamingLof::decode(r)?)),
            _ => Err(CodecError::Corrupt("unknown detector tag")),
        }
    }
}

impl StreamingDetector for ServableDetector {
    fn name(&self) -> &'static str {
        match self {
            Self::Ewma(d) => d.name(),
            Self::Cusum(d) => StreamingDetector::name(d),
            Self::PageHinkley(d) => StreamingDetector::name(d),
            Self::Histogram(d) => StreamingDetector::name(d),
            Self::SpectralResidual(d) => StreamingDetector::name(d),
            Self::Ae(d) => d.name(),
            Self::Knn(d) => d.name(),
            Self::Lof(d) => d.name(),
        }
    }

    fn update(&mut self, record: &[f64]) -> f64 {
        match self {
            Self::Ewma(d) => d.update(record),
            Self::Cusum(d) => StreamingDetector::update(d, record),
            Self::PageHinkley(d) => StreamingDetector::update(d, record),
            Self::Histogram(d) => StreamingDetector::update(d, record),
            Self::SpectralResidual(d) => StreamingDetector::update(d, record),
            Self::Ae(d) => d.update(record),
            Self::Knn(d) => d.update(record),
            Self::Lof(d) => d.update(record),
        }
    }

    fn reset(&mut self) {
        match self {
            Self::Ewma(d) => d.reset(),
            Self::Cusum(d) => StreamingDetector::reset(d),
            Self::PageHinkley(d) => StreamingDetector::reset(d),
            Self::Histogram(d) => StreamingDetector::reset(d),
            Self::SpectralResidual(d) => StreamingDetector::reset(d),
            Self::Ae(d) => d.reset(),
            Self::Knn(d) => d.reset(),
            Self::Lof(d) => d.reset(),
        }
    }
}

impl From<StreamingEwma> for ServableDetector {
    fn from(d: StreamingEwma) -> Self {
        Self::Ewma(d)
    }
}

impl From<CusumDetector> for ServableDetector {
    fn from(d: CusumDetector) -> Self {
        Self::Cusum(d)
    }
}

impl From<PageHinkleyDetector> for ServableDetector {
    fn from(d: PageHinkleyDetector) -> Self {
        Self::PageHinkley(d)
    }
}

impl From<HistogramDetector> for ServableDetector {
    fn from(d: HistogramDetector) -> Self {
        Self::Histogram(d)
    }
}

impl From<SpectralResidualDetector> for ServableDetector {
    fn from(d: SpectralResidualDetector) -> Self {
        Self::SpectralResidual(d)
    }
}

impl From<StreamingAe> for ServableDetector {
    fn from(d: StreamingAe) -> Self {
        Self::Ae(d)
    }
}

impl From<StreamingKnn> for ServableDetector {
    fn from(d: StreamingKnn) -> Self {
        Self::Knn(d)
    }
}

impl From<StreamingLof> for ServableDetector {
    fn from(d: StreamingLof) -> Self {
        Self::Lof(d)
    }
}

#[cfg(test)]
mod tests {
    use super::super::replay;
    use super::*;
    use crate::ewma::{EwmaConfig, EwmaDetector};
    use crate::knn_ad::{KnnConfig, KnnDetector};
    use crate::scorer::AnomalyScorer;
    use crate::stream::cusum::CusumConfig;
    use crate::stream::histogram::HistogramConfig;
    use crate::stream::spectral::SpectralResidualConfig;
    use exathlon_tsdata::series::default_names;
    use exathlon_tsdata::TimeSeries;

    fn trace(n: usize, seed: u64) -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.23 + seed as f64;
                vec![t.sin() * 2.0, (t * 0.7).cos()]
            })
            .collect();
        TimeSeries::from_records(default_names(2), 0, &records)
    }

    fn round_trip(det: &ServableDetector) -> (Vec<u8>, ServableDetector) {
        let mut w = ByteWriter::new();
        det.encode(&mut w);
        let bytes = w.into_bytes();
        let restored = ServableDetector::decode(&mut ByteReader::new(&bytes)).unwrap();
        (bytes, restored)
    }

    /// Every variant: snapshot mid-stream, then original and restored
    /// copies must score the *rest* of the trace bitwise identically —
    /// the snapshot carries in-flight state, not just the fitted model.
    #[test]
    fn mid_stream_snapshot_continues_bitwise() {
        let train = trace(300, 1);
        let mut dets: Vec<ServableDetector> = Vec::new();
        let mut ewma = EwmaDetector::new(EwmaConfig::default());
        ewma.fit(&[&train]);
        dets.push(ewma.streaming().into());
        let mut cusum = CusumDetector::new(CusumConfig::default());
        cusum.fit(&[&train]);
        dets.push(cusum.into());
        let mut hist = HistogramDetector::new(HistogramConfig { bins: 16 });
        hist.fit(&[&train]);
        dets.push(hist.into());
        dets.push(
            SpectralResidualDetector::new(SpectralResidualConfig { window: 16, saliency_avg: 3 })
                .into(),
        );
        let mut knn = KnnDetector::new(KnnConfig { k: 3, max_references: 100 });
        knn.fit(&[&train]);
        dets.push(StreamingKnn::new(knn).into());

        let test = trace(80, 2);
        for mut det in dets {
            // Stream half the trace, snapshot, then continue both copies.
            det.reset();
            for i in 0..40 {
                let _ = det.update(test.record(i));
            }
            let (bytes, mut restored) = round_trip(&det);
            for i in 40..80 {
                let a = det.update(test.record(i));
                let b = restored.update(test.record(i));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} diverged at record {i}: {a} vs {b}",
                    StreamingDetector::name(&det)
                );
            }
            // Every truncation of the snapshot errors instead of panicking.
            for cut in 0..bytes.len().min(64) {
                let mut r = ByteReader::new(&bytes[..cut]);
                assert!(ServableDetector::decode(&mut r).is_err());
            }
        }
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u8(200);
        let mut r = ByteReader::new(w.as_slice());
        assert!(matches!(
            ServableDetector::decode(&mut r),
            Err(CodecError::Corrupt("unknown detector tag"))
        ));
    }

    #[test]
    fn replay_through_enum_matches_inner() {
        let train = trace(200, 3);
        let mut cusum = CusumDetector::new(CusumConfig::default());
        cusum.fit(&[&train]);
        let test = trace(50, 4);
        let direct = replay(&mut cusum.clone(), &test);
        let mut wrapped: ServableDetector = cusum.into();
        let through_enum = replay(&mut wrapped, &test);
        assert_eq!(direct, through_enum);
    }
}
