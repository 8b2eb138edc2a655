//! Versioned binary checkpoints of serving profiles.
//!
//! A [`ServingProfile`] is everything one tenant's online scoring needs:
//! the dynamic test-time scaler (running per-feature moments), an
//! optional PCA projection, the streaming detector (fitted model *plus*
//! in-flight per-trace state), and the alert threshold. `encode` writes
//! it as a magic-tagged, versioned byte image with every `f64` as its
//! raw bit pattern; `decode` restores a profile that scores **bitwise
//! identically** and continues the stream exactly where the snapshot
//! left it. `crates/core/tests/checkpoint_roundtrip.rs` pins this.
//!
//! Wire layout (version 1):
//!
//! ```text
//! "EXCK" | version u8 | scaler? | pca? | detector | threshold f64
//! ```
//!
//! Optional sections are a presence byte followed by the section. Any
//! truncation, bad magic, unknown version, or corrupt length errors out
//! — decode never panics and never over-allocates on corrupt input.

use exathlon_ad::stream::{ServableDetector, StreamingDetector};
use exathlon_linalg::codec::{ByteReader, ByteWriter, CodecError};
use exathlon_linalg::pca::Pca;
use exathlon_tsdata::scale::DynamicScaler;

/// Checkpoint file magic: "EXathlon ChecKpoint".
pub const MAGIC: &[u8; 4] = b"EXCK";
/// Current wire version.
pub const VERSION: u8 = 1;

/// Cheap structural peek: does `bytes` start like a supported EXCK
/// image? The router tier uses this during rebalance to type a
/// migration failure ("old owner returned a non-checkpoint body" vs a
/// transport error) *before* PUT-ing the bytes onward; it does not
/// validate the payload — the receiving gatekeeper's full decode does.
pub fn is_image(bytes: &[u8]) -> bool {
    bytes.len() > MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC && bytes[MAGIC.len()] == VERSION
}

/// Errors of the file-level checkpoint API.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error while reading or writing the image.
    Io(std::io::Error),
    /// The image failed to decode (truncated, corrupt, wrong version).
    Codec(CodecError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Codec(e) => write!(f, "checkpoint decode error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// One tenant's complete online-scoring state.
#[derive(Debug, Clone)]
pub struct ServingProfile {
    /// Optional per-tenant dynamic scaler (running moments evolve with
    /// the tenant's own traffic). `None` when records arrive pre-scaled.
    pub scaler: Option<DynamicScaler>,
    /// Optional PCA projection applied before scaling.
    pub pca: Option<Pca>,
    /// The streaming detector, including in-flight state.
    pub detector: ServableDetector,
    /// Scores strictly above this flag an anomaly.
    pub threshold: f64,
}

impl ServingProfile {
    /// A profile that scores records as-is (no projection, no scaling).
    pub fn new(detector: ServableDetector, threshold: f64) -> Self {
        Self { scaler: None, pca: None, detector, threshold }
    }

    /// Ingest one record: optional PCA projection, optional dynamic
    /// rescale (which also advances the scaler's running moments), one
    /// detector tick. Returns `(score, is_anomaly)`.
    ///
    /// The stage outputs land in thread-local scratch rather than in the
    /// profile: a warmed ingest allocates nothing, and the buffers scale
    /// with worker threads instead of with resident tenants. A bare
    /// profile (no PCA, no scaler) never touches the scratch.
    pub fn ingest(&mut self, record: &[f64]) -> (f64, bool) {
        if self.pca.is_none() && self.scaler.is_none() {
            let score = self.detector.update(record);
            return (score, score > self.threshold);
        }
        /// Per-thread stage buffers: PCA centering, projection, scaling.
        #[derive(Default)]
        struct Stages {
            centered: Vec<f64>,
            projected: Vec<f64>,
            scaled: Vec<f64>,
        }
        thread_local! {
            static STAGES: std::cell::RefCell<Stages> = std::cell::RefCell::default();
        }
        let mut s = STAGES.take();
        let mut record = record;
        if let Some(pca) = &self.pca {
            pca.transform_row_into(record, &mut s.centered, &mut s.projected);
            record = &s.projected;
        }
        if let Some(scaler) = &mut self.scaler {
            s.scaled.clear();
            scaler.transform_and_update_into(record, &mut s.scaled);
            record = &s.scaled;
        }
        let score = self.detector.update(record);
        STAGES.set(s);
        (score, score > self.threshold)
    }

    /// The record width [`ServingProfile::ingest`] takes: the PCA input
    /// width if present, else the scaler's, else the detector's. `None`
    /// when every stage accepts any width.
    pub fn input_dim(&self) -> Option<usize> {
        match (&self.pca, &self.scaler) {
            (Some(pca), _) => Some(pca.input_dim()),
            (None, Some(scaler)) => Some(scaler.means().len()),
            (None, None) => self.detector.width(),
        }
    }

    /// Check that every stage takes the width the previous one emits and
    /// that the detector holds fitted state. Every decoded profile passes
    /// this, so an [`input_dim`](Self::input_dim)-wide record reaches each
    /// stage at the width it scores, and never an unfitted detector.
    fn check_widths(&self) -> Result<(), CodecError> {
        let mut width = self.pca.as_ref().map(Pca::n_components);
        if let Some(scaler) = &self.scaler {
            if width.is_some_and(|w| w != scaler.means().len()) {
                return Err(CodecError::Corrupt("PCA output width differs from the scaler's"));
            }
            width = Some(scaler.means().len());
        }
        match self.detector.width() {
            Some(0) => Err(CodecError::Corrupt("detector is not fitted")),
            Some(d) if width.is_some_and(|w| w != d) => {
                Err(CodecError::Corrupt("detector width differs from its input stage's"))
            }
            _ => Ok(()),
        }
    }

    /// Drop per-trace state (detector scratch), keeping the fitted model,
    /// scaler moments, and threshold.
    pub fn reset(&mut self) {
        self.detector.reset();
    }

    /// Serialize into `w` — magic, version, then every section bitwise.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(MAGIC);
        w.put_u8(VERSION);
        w.put_bool(self.scaler.is_some());
        if let Some(s) = &self.scaler {
            w.put_f64s(s.means());
            w.put_f64s(s.vars());
            w.put_f64(s.alpha());
        }
        w.put_bool(self.pca.is_some());
        if let Some(pca) = &self.pca {
            pca.encode(w);
        }
        self.detector.encode(w);
        w.put_f64(self.threshold);
    }

    /// The encoded image as a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode a profile written by [`ServingProfile::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let magic = r.get_bytes(4)?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let scaler = if r.get_bool()? {
            let means = r.get_f64s()?;
            let vars = r.get_f64s()?;
            let alpha = r.get_f64()?;
            if means.is_empty() || vars.len() != means.len() {
                return Err(CodecError::Corrupt("scaler state length mismatch"));
            }
            if !(alpha > 0.0 && alpha < 1.0) {
                return Err(CodecError::Corrupt("scaler alpha out of range"));
            }
            Some(DynamicScaler::from_state(means, vars, alpha))
        } else {
            None
        };
        let pca = if r.get_bool()? { Some(Pca::decode(r)?) } else { None };
        let detector = ServableDetector::decode(r)?;
        let threshold = r.get_f64()?;
        let profile = Self { scaler, pca, detector, threshold };
        profile.check_widths()?;
        Ok(profile)
    }

    /// Decode from a byte image, requiring the image to end exactly at
    /// the profile's last byte (a checkpoint file holds one profile).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let profile = Self::decode(&mut r)?;
        if !r.is_done() {
            return Err(CodecError::Corrupt("trailing bytes after checkpoint"));
        }
        Ok(profile)
    }

    /// Write the encoded image to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Read and decode a checkpoint file.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_ad::stream::{CusumConfig, CusumDetector};
    use exathlon_ad::AnomalyScorer;
    use exathlon_tsdata::scale::StandardScaler;
    use exathlon_tsdata::series::default_names;
    use exathlon_tsdata::TimeSeries;

    fn profile() -> ServingProfile {
        let records: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i as f64 * 0.2).sin(), (i as f64 * 0.11).cos()]).collect();
        let train = TimeSeries::from_records(default_names(2), 0, &records);
        let mut det = CusumDetector::new(CusumConfig::default());
        det.fit(&[&train]);
        let base = StandardScaler::fit(&train);
        ServingProfile {
            scaler: Some(DynamicScaler::from_standard(base, 0.01)),
            pca: None,
            detector: det.into(),
            threshold: 2.5,
        }
    }

    #[test]
    fn round_trip_continues_bitwise() {
        let mut p = profile();
        // Advance the stream, snapshot mid-flight, continue both copies.
        for i in 0..50 {
            let _ = p.ingest(&[(i as f64 * 0.3).sin(), i as f64 * 0.01]);
        }
        let bytes = p.to_bytes();
        let mut restored = ServingProfile::from_bytes(&bytes).unwrap();
        for i in 50..120 {
            let rec = [(i as f64 * 0.3).sin() + if i > 90 { 4.0 } else { 0.0 }, i as f64 * 0.01];
            let (a, fa) = p.ingest(&rec);
            let (b, fb) = restored.ingest(&rec);
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at {i}");
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = profile().to_bytes();
        for cut in 0..bytes.len() {
            assert!(ServingProfile::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = profile().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(ServingProfile::from_bytes(&bytes), Err(CodecError::BadMagic)));
        let mut bytes = profile().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            ServingProfile::from_bytes(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn is_image_peeks_magic_and_version() {
        let bytes = profile().to_bytes();
        assert!(is_image(&bytes));
        // A complete header peeks true even with nothing after it;
        // anything shorter than magic + version does not.
        assert!(is_image(&bytes[..5]));
        assert!(!is_image(&bytes[..4]));
        assert!(!is_image(&bytes[..3]));
        assert!(!is_image(b""));
        // Wrong magic or version fails the peek.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(!is_image(&b));
        let mut b = bytes;
        b[4] = VERSION + 1;
        assert!(!is_image(&b));
        // A peek is structural only: garbage after the header still peeks
        // true — full validation is `from_bytes`'s job.
        assert!(is_image(b"EXCK\x01garbage"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = profile().to_bytes();
        bytes.push(0);
        assert!(matches!(
            ServingProfile::from_bytes(&bytes),
            Err(CodecError::Corrupt("trailing bytes after checkpoint"))
        ));
    }

    #[test]
    fn input_dim_is_the_first_stage_width() {
        let mut p = profile();
        assert_eq!(p.input_dim(), Some(2));
        p.scaler = None;
        assert_eq!(p.input_dim(), Some(2), "without a scaler the detector sets the width");
    }

    #[test]
    fn unservable_images_are_typed_errors() {
        use exathlon_ad::knn_ad::{KnnConfig, KnnDetector};
        use exathlon_ad::stream::StreamingKnn;
        let unfitted = ServingProfile::new(
            StreamingKnn::new(KnnDetector::new(KnnConfig { k: 3, max_references: 8 })).into(),
            1.0,
        );
        assert!(matches!(
            ServingProfile::from_bytes(&unfitted.to_bytes()),
            Err(CodecError::Corrupt("detector is not fitted"))
        ));
        let mut wide = profile();
        wide.scaler = Some(DynamicScaler::from_state(vec![0.0; 3], vec![1.0; 3], 0.01));
        assert!(matches!(
            ServingProfile::from_bytes(&wide.to_bytes()),
            Err(CodecError::Corrupt("detector width differs from its input stage's"))
        ));
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("exathlon_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.exck");
        let mut p = profile();
        p.save(&path).unwrap();
        let mut restored = ServingProfile::load(&path).unwrap();
        let (a, _) = p.ingest(&[0.5, -0.5]);
        let (b, _) = restored.ingest(&[0.5, -0.5]);
        assert_eq!(a.to_bits(), b.to_bits());
        std::fs::remove_file(&path).unwrap();
    }
}
