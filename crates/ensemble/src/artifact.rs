//! `MNE1`: the ensemble artifact format — how a trained ensemble gets to
//! disk and how a serving process cold-starts from it.
//!
//! An artifact bundles, little-endian:
//!
//! * magic `MNE1`;
//! * `u32` member count;
//! * `u32` manifest length + the [`EnsembleManifest`] as JSON
//!   (combine-rule and training-strategy metadata);
//! * per member: `u32` name length + the member name (UTF-8), then
//!   `u32` section length + a network checkpoint
//!   ([`mn_nn::io::save_network`]: architecture JSON + a weight blob —
//!   full-precision `MNW1`, or quantized `MNQ1` when the artifact was
//!   written through [`save_ensemble_quantized`] with a `f16`/`i8`
//!   [`WeightEncoding`]; the member sections are self-describing, so
//!   loading needs no out-of-band encoding knowledge);
//! * a closing `u32` CRC-32 (IEEE, [`mn_nn::io::crc32`]) over every
//!   preceding byte, verified before any section is parsed — a
//!   bit-flipped artifact fails loudly with
//!   [`ArtifactError::ChecksumMismatch`] instead of cold-starting a
//!   subtly wrong ensemble.
//!
//! Restoring an artifact rebuilds every member network from its own
//! section, so loading needs nothing but the bytes — and produces
//! predictions bitwise identical to the ensemble that was saved (pinned
//! by the `serving_stack` integration suite). `TrainedEnsemble::save` in
//! the `mothernets` crate writes this format;
//! [`crate::engine::EnginePlan::load`] boots from it.

use std::fmt;
use std::path::Path;

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

use mn_nn::io::{crc32, load_network, save_network_quantized, WeightEncoding, WeightsError};

use crate::engine::EngineError;
use crate::faults;
use crate::member::EnsembleMember;

const MAGIC: &[u8; 4] = b"MNE1";

/// Ensemble-level metadata carried alongside the member weights.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct EnsembleManifest {
    /// The combination rule the ensemble was evaluated/served with
    /// (e.g. `"average"`, `"vote"`).
    pub combine: String,
    /// The training strategy that produced the members
    /// (e.g. `"mothernets"`, `"full-data"`), informational.
    pub strategy: String,
}

impl Default for EnsembleManifest {
    fn default() -> Self {
        EnsembleManifest {
            combine: "average".to_string(),
            strategy: "unspecified".to_string(),
        }
    }
}

/// Why an ensemble artifact could not be written or restored.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArtifactError {
    /// The bytes do not start with the `MNE1` magic.
    BadMagic,
    /// The bytes ended before all sections were read.
    Truncated,
    /// Bytes remain after the last member section (before the checksum).
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// The artifact's CRC-32 does not match its payload: the bytes were
    /// corrupted since [`save_ensemble`] wrote them. Checked before any
    /// section is parsed.
    ChecksumMismatch {
        /// Checksum stored in the artifact.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// The manifest section is not valid JSON for an
    /// [`EnsembleManifest`].
    BadManifest {
        /// Human-readable detail.
        detail: String,
    },
    /// A member's name section is not valid UTF-8.
    BadName {
        /// Member index within the artifact.
        index: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The artifact contains zero members.
    EmptyEnsemble,
    /// A member's network checkpoint failed to restore.
    Member {
        /// Member index within the artifact.
        index: usize,
        /// The underlying checkpoint error.
        source: WeightsError,
    },
    /// The restored members cannot form an engine (e.g. mismatched
    /// geometry).
    Rejected {
        /// Human-readable detail.
        detail: String,
    },
    /// Reading or writing the artifact file failed.
    Io {
        /// Human-readable detail (path + OS error).
        detail: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not an MNE1 ensemble artifact"),
            ArtifactError::Truncated => write!(f, "ensemble artifact ended early"),
            ArtifactError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after ensemble artifact")
            }
            ArtifactError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "ensemble artifact checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            ArtifactError::BadManifest { detail } => write!(f, "bad manifest: {detail}"),
            ArtifactError::BadName { index, detail } => {
                write!(f, "member {index} has a malformed name: {detail}")
            }
            ArtifactError::EmptyEnsemble => write!(f, "ensemble artifact has no members"),
            ArtifactError::Member { index, source } => {
                write!(f, "member {index} failed to restore: {source}")
            }
            ArtifactError::Rejected { detail } => {
                write!(f, "restored ensemble rejected: {detail}")
            }
            ArtifactError::Io { detail } => write!(f, "artifact I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Member { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<EngineError> for ArtifactError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::EmptyEnsemble => ArtifactError::EmptyEnsemble,
            EngineError::MemberMismatch { detail } => ArtifactError::Rejected { detail },
        }
    }
}

/// Serializes an ensemble (members + manifest) as `MNE1` bytes.
pub fn save_ensemble(members: &[EnsembleMember], manifest: &EnsembleManifest) -> Vec<u8> {
    let refs: Vec<&EnsembleMember> = members.iter().collect();
    save_ensemble_refs(&refs, manifest)
}

/// [`save_ensemble`] with member weights stored under `encoding`
/// (`f16` ≈ 0.5x, `i8` ≈ 0.25x the full-precision artifact bytes). The
/// container layout is unchanged — each member section is a
/// self-describing checkpoint, so [`load_ensemble`] restores either
/// variant transparently, dequantizing into `f32` networks.
///
/// # Errors
///
/// [`ArtifactError::Member`] wrapping [`WeightsError::NonFinite`] when
/// a member holds NaN or ±Inf weights (low-precision encodings cannot
/// represent them; see [`mn_nn::io::save_weights_quantized`]).
pub fn save_ensemble_quantized(
    members: &[EnsembleMember],
    manifest: &EnsembleManifest,
    encoding: WeightEncoding,
) -> Result<Vec<u8>, ArtifactError> {
    let refs: Vec<&EnsembleMember> = members.iter().collect();
    save_ensemble_refs_quantized(&refs, manifest, encoding)
}

/// [`save_ensemble`] over borrowed members — the engine serializes its
/// slots through this without cloning networks.
pub fn save_ensemble_refs(members: &[&EnsembleMember], manifest: &EnsembleManifest) -> Vec<u8> {
    save_ensemble_refs_quantized(members, manifest, WeightEncoding::F32)
        // mn-lint: allow(no-panic-in-serve, reason = "WeightEncoding::F32 never takes the quantization path, which is the only error source in save_ensemble_refs_quantized; the Err arm is statically unreachable")
        .expect("f32 encoding is infallible")
}

/// [`save_ensemble_quantized`] over borrowed members.
///
/// # Errors
///
/// See [`save_ensemble_quantized`].
pub fn save_ensemble_refs_quantized(
    members: &[&EnsembleMember],
    manifest: &EnsembleManifest,
    encoding: WeightEncoding,
) -> Result<Vec<u8>, ArtifactError> {
    // mn-lint: allow(no-panic-in-serve, reason = "serializing an in-memory EnsembleManifest (plain structs, no maps with non-string keys, no custom Serialize) cannot fail; serde_json errors only on those or on I/O, and this writes to a String")
    let manifest_json = serde_json::to_string(manifest).expect("manifest serializes");
    let mut out = Vec::new();
    out.put_slice(MAGIC);
    out.put_u32_le(members.len() as u32);
    out.put_u32_le(manifest_json.len() as u32);
    out.put_slice(manifest_json.as_bytes());
    for (index, m) in members.iter().enumerate() {
        let section = save_network_quantized(&m.network, encoding)
            .map_err(|source| ArtifactError::Member { index, source })?;
        out.put_u32_le(m.name.len() as u32);
        out.put_slice(m.name.as_bytes());
        out.put_u32_le(section.len() as u32);
        out.put_slice(&section);
    }
    let checksum = crc32(&out);
    out.put_u32_le(checksum);
    Ok(out)
}

/// Reads a length-prefixed byte section, advancing `blob`.
fn take_section<'a>(blob: &mut &'a [u8]) -> Result<&'a [u8], ArtifactError> {
    if blob.remaining() < 4 {
        return Err(ArtifactError::Truncated);
    }
    let len = blob.get_u32_le() as usize;
    if blob.remaining() < len {
        return Err(ArtifactError::Truncated);
    }
    let (section, rest) = blob.split_at(len);
    *blob = rest;
    Ok(section)
}

/// Restores an ensemble from `MNE1` bytes.
///
/// # Errors
///
/// Every structural defect maps to a distinct [`ArtifactError`]: wrong
/// magic, truncation at any section boundary, trailing bytes, a
/// malformed manifest, a non-UTF-8 member name, zero members, or a
/// member checkpoint that fails to restore (with its index and
/// underlying [`WeightsError`]).
pub fn load_ensemble(
    blob: &[u8],
) -> Result<(EnsembleManifest, Vec<EnsembleMember>), ArtifactError> {
    // Header (8) plus trailing checksum (4) is the smallest valid artifact.
    if blob.len() < 12 {
        return Err(ArtifactError::Truncated);
    }
    if &blob[..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    // Verify integrity before parsing: most single-bit flips land inside
    // a member's f32 weight payload, where every section still frames
    // correctly and the ensemble would restore subtly wrong.
    let (payload, stored) = blob.split_at(blob.len() - 4);
    // mn-lint: allow(no-panic-in-serve, reason = "split_at(len - 4) yields exactly a 4-byte tail (the length was bounds-checked above), so the TryInto<[u8; 4]> conversion cannot fail")
    let expected = u32::from_le_bytes(stored.try_into().expect("4-byte checksum"));
    let actual = crc32(payload);
    if expected != actual {
        return Err(ArtifactError::ChecksumMismatch { expected, actual });
    }
    let mut blob = &payload[4..];
    let count = blob.get_u32_le() as usize;
    if count == 0 {
        return Err(ArtifactError::EmptyEnsemble);
    }
    let manifest_bytes = take_section(&mut blob)?;
    let manifest_json =
        std::str::from_utf8(manifest_bytes).map_err(|e| ArtifactError::BadManifest {
            detail: format!("manifest is not UTF-8: {e}"),
        })?;
    let manifest: EnsembleManifest =
        serde_json::from_str(manifest_json).map_err(|e| ArtifactError::BadManifest {
            detail: format!("manifest JSON does not parse: {e}"),
        })?;
    let mut members = Vec::with_capacity(count);
    for index in 0..count {
        let name_bytes = take_section(&mut blob)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|e| ArtifactError::BadName {
                index,
                detail: format!("name is not UTF-8: {e}"),
            })?
            .to_string();
        let section = take_section(&mut blob)?;
        let network =
            load_network(section).map_err(|source| ArtifactError::Member { index, source })?;
        members.push(EnsembleMember::new(name, network));
    }
    if blob.has_remaining() {
        return Err(ArtifactError::TrailingBytes {
            count: blob.remaining(),
        });
    }
    Ok((manifest, members))
}

/// Writes an `MNE1` artifact file.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file cannot be written.
pub fn write_ensemble_file(
    path: impl AsRef<Path>,
    members: &[EnsembleMember],
    manifest: &EnsembleManifest,
) -> Result<(), ArtifactError> {
    let path = path.as_ref();
    std::fs::write(path, save_ensemble(members, manifest)).map_err(|e| ArtifactError::Io {
        detail: format!("cannot write {}: {e}", path.display()),
    })
}

/// Writes an `MNE1` artifact file with quantized member weights.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file cannot be written, else any
/// [`save_ensemble_quantized`] error.
pub fn write_ensemble_file_quantized(
    path: impl AsRef<Path>,
    members: &[EnsembleMember],
    manifest: &EnsembleManifest,
    encoding: WeightEncoding,
) -> Result<(), ArtifactError> {
    let path = path.as_ref();
    let bytes = save_ensemble_quantized(members, manifest, encoding)?;
    std::fs::write(path, bytes).map_err(|e| ArtifactError::Io {
        detail: format!("cannot write {}: {e}", path.display()),
    })
}

/// Reads an `MNE1` artifact file.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file cannot be read, else any
/// [`load_ensemble`] error.
pub fn read_ensemble_file(
    path: impl AsRef<Path>,
) -> Result<(EnsembleManifest, Vec<EnsembleMember>), ArtifactError> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path).map_err(|e| ArtifactError::Io {
        detail: format!("cannot read {}: {e}", path.display()),
    })?;
    // Failpoint: Error models an unreadable file, Corrupt models silent
    // on-disk bit rot — which the checksum must turn into a typed error.
    match faults::trigger(faults::sites::ARTIFACT_READ) {
        Some(faults::Injected::Error) => {
            return Err(ArtifactError::Io {
                detail: format!("injected fault: {}", faults::sites::ARTIFACT_READ),
            });
        }
        Some(faults::Injected::Corrupt) => {
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x10;
            }
        }
        None => {}
    }
    load_ensemble(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAction;
    use mn_nn::arch::{Architecture, InputSpec};
    use mn_nn::Network;

    fn members() -> Vec<EnsembleMember> {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
        (0..3u64)
            .map(|s| EnsembleMember::new(format!("m{s}"), Network::seeded(&arch, s)))
            .collect()
    }

    /// Recomputes the trailing CRC after a deliberate payload edit, so a
    /// test can reach the structural error *behind* the checksum.
    fn reseal(bytes: &mut [u8]) {
        let payload_len = bytes.len() - 4;
        let fixed = crc32(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&fixed.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_manifest_names_and_weights() {
        let original = members();
        let manifest = EnsembleManifest {
            combine: "vote".into(),
            strategy: "mothernets".into(),
        };
        let bytes = save_ensemble(&original, &manifest);
        let (got_manifest, got_members) = load_ensemble(&bytes).unwrap();
        assert_eq!(got_manifest, manifest);
        assert_eq!(got_members.len(), original.len());
        for (a, b) in original.iter().zip(&got_members) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                mn_nn::io::save_weights(&a.network),
                mn_nn::io::save_weights(&b.network),
                "weights changed through the artifact"
            );
        }
    }

    #[test]
    fn corruption_yields_distinct_typed_errors() {
        let bytes = save_ensemble(&members(), &EnsembleManifest::default());
        assert!(matches!(
            load_ensemble(b"xx"),
            Err(ArtifactError::Truncated)
        ));
        assert!(matches!(
            load_ensemble(b"JUNKJUNKJUNK"),
            Err(ArtifactError::BadMagic)
        ));
        // Truncation clips the stored checksum, so it reads as corruption.
        assert!(matches!(
            load_ensemble(&bytes[..bytes.len() - 3]),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // Naive trailing bytes shift the checksum off its slot: corruption.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0]);
        assert!(matches!(
            load_ensemble(&trailing),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // Trailing bytes with a re-sealed checksum: the structural check
        // still catches the extra payload.
        let mut padded = bytes.clone();
        let crc_at = padded.len() - 4;
        padded.splice(crc_at..crc_at, [0, 0]);
        reseal(&mut padded);
        assert!(matches!(
            load_ensemble(&padded),
            Err(ArtifactError::TrailingBytes { count: 2 })
        ));
        let mut empty = bytes.clone();
        empty[4..8].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut empty);
        assert!(matches!(
            load_ensemble(&empty),
            Err(ArtifactError::EmptyEnsemble)
        ));
        // Smash the manifest JSON (re-sealed, else the checksum fires first).
        let mut bad_manifest = bytes.clone();
        bad_manifest[12] = b'!';
        reseal(&mut bad_manifest);
        assert!(matches!(
            load_ensemble(&bad_manifest),
            Err(ArtifactError::BadManifest { .. })
        ));
    }

    #[test]
    fn member_restore_failures_carry_index_and_source() {
        let bytes = save_ensemble(&members(), &EnsembleManifest::default());
        // Flip a byte inside the last member's weight payload but re-seal
        // the *outer* checksum: the artifact frames correctly, the outer
        // CRC passes, and the member's own MNW1 checksum reports the
        // corruption with its index.
        let mut bad_member = bytes.clone();
        let inside_member = bad_member.len() - 12; // inside member 2's MNW1 tail
        bad_member[inside_member] ^= 0xFF;
        reseal(&mut bad_member);
        match load_ensemble(&bad_member) {
            Err(ArtifactError::Member { index, source }) => {
                assert_eq!(index, 2);
                assert!(
                    matches!(source, WeightsError::ChecksumMismatch { .. }),
                    "expected inner checksum failure, got {source:?}"
                );
            }
            other => panic!("expected Member error for index 2, got {other:?}"),
        }
    }

    #[test]
    fn checksum_detects_artifact_bit_flip() {
        let bytes = save_ensemble(&members(), &EnsembleManifest::default());
        // A single-bit flip anywhere in the payload — here inside an f32
        // weight, where every section still frames correctly — must fail
        // loudly instead of cold-starting a subtly wrong ensemble.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        match load_ensemble(&flipped) {
            Err(ArtifactError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
                assert_eq!(expected, crc32(&bytes[..bytes.len() - 4]));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // The clean bytes still restore.
        load_ensemble(&bytes).unwrap();
    }

    #[test]
    fn artifact_read_failpoint_injects_io_error_and_corruption() {
        let dir = std::env::temp_dir().join("mn-artifact-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faulty.mne1");
        write_ensemble_file(&path, &members(), &EnsembleManifest::default()).unwrap();

        let scope = faults::scope();
        scope.enable_times(faults::sites::ARTIFACT_READ, FaultAction::Error, 1);
        assert!(matches!(
            read_ensemble_file(&path),
            Err(ArtifactError::Io { .. })
        ));
        // One-shot: the next read is clean.
        read_ensemble_file(&path).unwrap();

        scope.enable_times(faults::sites::ARTIFACT_READ, FaultAction::Corrupt, 1);
        assert!(matches!(
            read_ensemble_file(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        assert_eq!(faults::fired(faults::sites::ARTIFACT_READ), 2);
        drop(scope);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        // Reads a file, so it reaches the process-global ARTIFACT_READ
        // site another test may have armed: hold the lease.
        let _scope = faults::scope();
        let dir = std::env::temp_dir().join("mn-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ensemble.mne1");
        write_ensemble_file(&path, &members(), &EnsembleManifest::default()).unwrap();
        let (manifest, got) = read_ensemble_file(&path).unwrap();
        assert_eq!(manifest, EnsembleManifest::default());
        assert_eq!(got.len(), 3);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_ensemble_file(&path),
            Err(ArtifactError::Io { .. })
        ));
    }
}
