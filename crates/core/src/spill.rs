//! Spill-to-disk for evicted serving profiles.
//!
//! The gatekeeper's registry shards are byte-budgeted: when a tenant set
//! outgrows a shard's budget the LRU profiles are evicted. Before this
//! module, eviction destroyed the profile's streaming state — the next
//! touch of that entity saw `404 unknown profile` and the operator had
//! to re-`PUT` a (stale) checkpoint. A [`SpillDir`] instead writes the
//! evicted [`ServingProfile`] to disk as a standard EXCK checkpoint
//! image and transparently restores it on the next touch, so eviction
//! becomes a tier demotion rather than data loss.
//!
//! The EXCK codec stores every `f64` as raw bits ([`crate::checkpoint`]),
//! so a spill → restore cycle is bitwise-lossless: the score stream an
//! entity produces is identical whether or not it was evicted in the
//! middle (pinned by a proptest over arbitrary cut points in
//! `crates/core/tests/checkpoint_roundtrip.rs`).
//!
//! File layout: one file per entity, named by lowercase-hex-encoding the
//! key parts (`{hex(app)}-{hex(entity)}.exck`). Hex encoding makes the
//! name bijective with the key and immune to path traversal or
//! separator collisions, at 2x name length — fine for cache files.
//! Writes go to a `.tmp` sibling and are renamed into place so a crash
//! mid-spill never leaves a torn image where `restore` can find it.
//! Per-key mutual exclusion is inherited from the registry shard lock:
//! a key lives on exactly one shard, and the gatekeeper only spills or
//! restores a key while holding that shard's mutex.

use std::io;
use std::path::{Path, PathBuf};

use crate::checkpoint::ServingProfile;
use crate::registry::EntityKey;
use exathlon_linalg::codec::ByteWriter;

/// A directory holding spilled profile images.
#[derive(Debug, Clone)]
pub struct SpillDir {
    dir: PathBuf,
}

impl SpillDir {
    /// Open (creating if needed) a spill directory.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Open (creating if needed) one *node's* spill directory under a
    /// shared base: `base/<node>`. Multi-node deployments (several
    /// gatekeepers behind the router tier, possibly on one filesystem)
    /// must never share a spill namespace — two nodes owning different
    /// key ranges would otherwise overwrite or resurrect each other's
    /// images across rebalances. The node label becomes a path segment,
    /// so it is restricted to filesystem-safe characters.
    pub fn create_node(base: impl Into<PathBuf>, node: &str) -> io::Result<Self> {
        if node.is_empty()
            || !node.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
            || node.starts_with('.')
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node label must be [A-Za-z0-9._-]+ and not start with '.': {node:?}"),
            ));
        }
        Self::create(base.into().join(node))
    }

    /// The directory backing this spill tier.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The image path for one entity key.
    pub fn file_path(&self, app: &str, entity: &str) -> PathBuf {
        let mut name = String::with_capacity(2 * (app.len() + entity.len()) + 6);
        push_hex(&mut name, app.as_bytes());
        name.push('-');
        push_hex(&mut name, entity.as_bytes());
        name.push_str(".exck");
        self.dir.join(name)
    }

    /// Write `profile` as an EXCK image, atomically (tmp + rename).
    ///
    /// `scratch` is a reused encode buffer so steady-state spilling does
    /// not reallocate; returns the image size in bytes.
    pub fn spill(
        &self,
        app: &str,
        entity: &str,
        profile: &ServingProfile,
        scratch: &mut ByteWriter,
    ) -> io::Result<usize> {
        scratch.clear();
        profile.encode(scratch);
        let path = self.file_path(app, entity);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, scratch.as_slice())?;
        std::fs::rename(&tmp, &path)?;
        Ok(scratch.len())
    }

    /// Read back a spilled profile and its encoded size in bytes (the
    /// registry charges that size against its budget), or `None` if this
    /// key has no image.
    ///
    /// A present-but-corrupt image is an error (`InvalidData`), not a
    /// silent miss: restoring a torn profile would corrupt the score
    /// stream the spill tier exists to preserve.
    pub fn restore(&self, app: &str, entity: &str) -> io::Result<Option<(ServingProfile, usize)>> {
        let Some(bytes) = self.read(app, entity)? else { return Ok(None) };
        decode(&bytes).map(|p| Some((p, bytes.len())))
    }

    /// The spilled image of a key, checked to decode, or `None` if this
    /// key has no image. The bytes are the profile's checkpoint image, so
    /// a spilled tenant's checkpoint is served without restoring it. A
    /// corrupt image is an `InvalidData` error, as in
    /// [`SpillDir::restore`].
    pub(crate) fn image(&self, app: &str, entity: &str) -> io::Result<Option<Vec<u8>>> {
        let Some(bytes) = self.read(app, entity)? else { return Ok(None) };
        decode(&bytes)?;
        Ok(Some(bytes))
    }

    fn read(&self, app: &str, entity: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.file_path(app, entity)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Delete the image for a key (after restore, or on profile DELETE).
    /// Returns whether an image existed.
    pub fn remove(&self, app: &str, entity: &str) -> io::Result<bool> {
        match std::fs::remove_file(self.file_path(app, entity)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Every key with an image here, decoded from the file names. Images
    /// still being written (`.tmp`) and names that are not a hex-encoded
    /// key are skipped.
    pub fn keys(&self) -> io::Result<Vec<EntityKey>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            keys.extend(entry?.file_name().to_str().and_then(key_of));
        }
        Ok(keys)
    }
}

fn decode(bytes: &[u8]) -> io::Result<ServingProfile> {
    ServingProfile::from_bytes(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad spill image: {e}")))
}

fn push_hex(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
}

/// The key an image file name encodes (see [`SpillDir::file_path`]).
fn key_of(name: &str) -> Option<EntityKey> {
    let (app, entity) = name.strip_suffix(".exck")?.split_once('-')?;
    Some(EntityKey::new(from_hex(app)?, from_hex(entity)?))
}

/// The inverse of [`push_hex`]: `None` unless `hex` is non-empty hex
/// pairs spelling UTF-8.
fn from_hex(hex: &str) -> Option<String> {
    if hex.is_empty() || !hex.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| (c as char).to_digit(16);
    let bytes = hex.as_bytes().chunks(2).map(|p| Some((nibble(p[0])? << 4 | nibble(p[1])?) as u8));
    String::from_utf8(bytes.collect::<Option<_>>()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_ad::stream::StreamingEwma;

    fn profile() -> ServingProfile {
        ServingProfile::new(StreamingEwma::new(0.3, vec![1.0, 2.0]).into(), 0.5)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exathlon-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_restore_is_bitwise() {
        let dir = tempdir("roundtrip");
        let spill = SpillDir::create(&dir).unwrap();
        let mut p = profile();
        for i in 0..17 {
            p.ingest(&[i as f64, -0.5 * i as f64]);
        }
        let mut scratch = ByteWriter::new();
        let n = spill.spill("app", "ent", &p, &mut scratch).unwrap();
        assert_eq!(n, p.to_bytes().len());
        let (restored, size) = spill.restore("app", "ent").unwrap().unwrap();
        assert_eq!(size, n);
        assert_eq!(restored.to_bytes(), p.to_bytes(), "EXCK image must be bitwise stable");
        assert_eq!(spill.image("app", "ent").unwrap(), Some(p.to_bytes()));
        assert_eq!(spill.image("app", "other").unwrap(), None);
        // A second spill reuses the scratch buffer without growing state.
        let n2 = spill.spill("app", "ent", &p, &mut scratch).unwrap();
        assert_eq!(n, n2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_removed_images() {
        let dir = tempdir("missing");
        let spill = SpillDir::create(&dir).unwrap();
        assert!(spill.restore("a", "b").unwrap().is_none());
        assert!(!spill.remove("a", "b").unwrap());
        let mut scratch = ByteWriter::new();
        spill.spill("a", "b", &profile(), &mut scratch).unwrap();
        assert!(spill.restore("a", "b").unwrap().is_some());
        assert!(spill.remove("a", "b").unwrap());
        assert!(spill.restore("a", "b").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_key_parts_stay_inside_the_dir() {
        let dir = tempdir("hostile");
        let spill = SpillDir::create(&dir).unwrap();
        let path = spill.file_path("../../etc", "pass/wd");
        assert!(path.starts_with(&dir), "{path:?}");
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'), "{name}");
        // Distinct keys that would collide under naive joining do not.
        assert_ne!(spill.file_path("a-b", "c"), spill.file_path("a", "b-c"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_node_dirs_are_disjoint_namespaces() {
        let base = tempdir("nodes");
        let a = SpillDir::create_node(&base, "node-a").unwrap();
        let b = SpillDir::create_node(&base, "node-b").unwrap();
        let mut scratch = ByteWriter::new();
        a.spill("app", "e", &profile(), &mut scratch).unwrap();
        // The same key on another node's tier is invisible: per-node
        // dirs keep rebalanced ownership from resurrecting stale state.
        assert!(b.restore("app", "e").unwrap().is_none());
        assert!(a.restore("app", "e").unwrap().is_some());
        assert!(a.path().starts_with(&base) && b.path().starts_with(&base));
        assert_ne!(a.path(), b.path());
        // Hostile labels are refused, not joined into the path.
        for bad in ["", "..", "a/b", "a\\b", ".hidden"] {
            assert!(SpillDir::create_node(&base, bad).is_err(), "{bad:?} must be rejected");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn corrupt_image_is_an_error_not_a_miss() {
        let dir = tempdir("corrupt");
        let spill = SpillDir::create(&dir).unwrap();
        let mut scratch = ByteWriter::new();
        spill.spill("a", "b", &profile(), &mut scratch).unwrap();
        let path = spill.file_path("a", "b");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        let err = spill.restore("a", "b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(spill.image("a", "b").unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(path.exists(), "a failed read must keep the image");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
