//! Network checkpointing: weight blobs (full- and low-precision) and
//! self-describing checkpoints.
//!
//! Three formats live here, all little-endian and all closed by a `u32`
//! CRC-32 (IEEE) over every preceding byte, verified *before* any tensor
//! is parsed — a bit-flipped weight file fails loudly at load
//! ([`WeightsError::ChecksumMismatch`]) instead of serving garbage (most
//! single-bit flips land in a numeric payload, where structural
//! validation alone cannot see them):
//!
//! * **`MNW1` weight blob** ([`save_weights`] / [`load_weights`]) —
//!   every persistent tensor of a network (trainable parameters *and*
//!   batch-norm running statistics) at full `f32` precision, restorable
//!   into a structurally identical network. Layout: magic `MNW1`, `u32`
//!   tensor count, then per tensor a `u32` element count followed by
//!   that many `f32` values, then the CRC.
//! * **`MNQ1` quantized weight blob** ([`save_weights_quantized`]) — the
//!   same tensors under a low-precision storage encoding chosen at save
//!   time ([`WeightEncoding`]): IEEE half floats (`f16`, 2 bytes per
//!   element) or symmetric `i8` with a per-tensor scale (1 byte per
//!   element + 4 bytes of scale). Layout: magic `MNQ1`, `u32` tensor
//!   count, then per tensor a `u8` encoding tag, a `u32` element count,
//!   for `i8` the `f32` scale, then the packed payload; closed by the
//!   CRC. [`load_weights`] dispatches on the magic and **dequantizes
//!   back into the network's `f32` tensors**, so everything downstream
//!   (engine plans, trunk sharing, serving) runs unchanged. Non-finite
//!   weights are rejected at *save* time with a typed
//!   [`WeightsError::NonFinite`] (see [`mn_tensor::quant`]).
//! * **Network checkpoint** ([`save_network`] / [`load_network`]) — a
//!   self-describing section pairing the architecture (JSON via serde,
//!   see [`crate::arch::Architecture`]) with one weight blob (either
//!   magic), so a network can be rebuilt from bytes alone. Layout: `u32`
//!   architecture JSON length, the JSON, then the blob to the end. The
//!   `MNE1` ensemble artifact in `mn-ensemble` frames one such section
//!   per member.
//!
//! Serialization needs only shared access ([`save_weights`] takes
//! `&Network` and walks the shared-ref state visitor); restoring mutates
//! and takes `&mut Network`.

use std::fmt;

use bytes::{Buf, BufMut};

use mn_tensor::quant;

use crate::arch::Architecture;
use crate::network::Network;

const MAGIC: &[u8; 4] = b"MNW1";
const MAGIC_QUANT: &[u8; 4] = b"MNQ1";

/// The storage encoding of a weight blob, chosen at save time.
///
/// Loading always dequantizes back into `f32` tensors; the encoding only
/// changes bytes on disk (and therefore artifact size, cold-start copy
/// cost, and cache/transfer footprint), never the serving API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WeightEncoding {
    /// Full precision — the legacy `MNW1` layout, bit-exact round trip.
    F32,
    /// IEEE 754 binary16: 2 bytes per element, ≤ 2⁻¹¹ relative error for
    /// normal-range weights (0.50x the f32 payload bytes).
    F16,
    /// Symmetric per-tensor `i8`: 1 byte per element plus one `f32`
    /// scale, absolute error ≤ `scale / 2` (0.25x the f32 payload bytes).
    I8,
}

impl WeightEncoding {
    /// The `u8` tag stored per tensor in `MNQ1` blobs.
    fn tag(self) -> u8 {
        match self {
            WeightEncoding::F32 => 0,
            WeightEncoding::F16 => 1,
            WeightEncoding::I8 => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WeightEncoding::F32),
            1 => Some(WeightEncoding::F16),
            2 => Some(WeightEncoding::I8),
            _ => None,
        }
    }

    /// Human-readable encoding name (`"f32"` / `"f16"` / `"i8"`).
    pub fn label(self) -> &'static str {
        match self {
            WeightEncoding::F32 => "f32",
            WeightEncoding::F16 => "f16",
            WeightEncoding::I8 => "i8",
        }
    }

    /// Payload bytes for an `n`-element tensor under this encoding
    /// (excluding the shared per-tensor framing).
    pub fn payload_bytes(self, n: usize) -> usize {
        match self {
            WeightEncoding::F32 => 4 * n,
            WeightEncoding::F16 => 2 * n,
            WeightEncoding::I8 => 4 + n, // per-tensor scale + codes
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup tables
/// for slice-by-8, built at compile time — the workspace has no checksum
/// dependency. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which lets eight input bytes fold into the running value with eight
/// independent lookups instead of a chain of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into the running (pre-inverted) CRC value one byte at a
/// time: the tail of [`crc32`], and the oracle its tests compare against.
fn crc32_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `bytes` — the checksum closing `MNW1` weight blobs
/// and `MNE1` ensemble artifacts. Exposed so format-aware tooling (and
/// corruption tests) can recompute it. Slice-by-8: eight bytes per step,
/// the remainder byte by byte.
// mn-lint: hot-path
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !crc32_bytewise(crc, words.remainder())
}

/// Errors when restoring a weight blob or network checkpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WeightsError {
    /// The blob does not start with the expected magic bytes.
    BadMagic,
    /// The blob ended before all tensors were read.
    Truncated,
    /// Tensor count or a tensor's element count does not match the target
    /// network's structure.
    ShapeMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// Trailing bytes after the last tensor (before the checksum).
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// The blob's CRC-32 does not match its payload: the bytes were
    /// corrupted (or truncated/extended) since [`save_weights`] wrote
    /// them. Checked before any tensor is parsed.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// A checkpoint's architecture section is not valid JSON, or describes
    /// an architecture that fails validation.
    BadArchitecture {
        /// Human-readable detail.
        detail: String,
    },
    /// A quantized (`MNQ1`) blob carries an encoding tag this build does
    /// not understand.
    BadEncoding {
        /// The unrecognized tag byte.
        tag: u8,
        /// Tensor index carrying it.
        tensor: usize,
    },
    /// A tensor contains NaN or ±Inf and cannot be quantized — raised at
    /// *save* time ([`save_weights_quantized`]), so a corrupt network
    /// fails loudly before bytes ever hit disk.
    NonFinite {
        /// Tensor index within the save order.
        tensor: usize,
        /// Flat element index within that tensor.
        index: usize,
    },
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::BadMagic => write!(f, "not a MNW1 weight blob"),
            WeightsError::Truncated => write!(f, "weight blob ended early"),
            WeightsError::ShapeMismatch { detail } => {
                write!(f, "weight blob does not match network: {detail}")
            }
            WeightsError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after weights")
            }
            WeightsError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "weight blob checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            WeightsError::BadArchitecture { detail } => {
                write!(f, "bad architecture section: {detail}")
            }
            WeightsError::BadEncoding { tag, tensor } => {
                write!(f, "tensor {tensor} has unknown weight encoding tag {tag}")
            }
            WeightsError::NonFinite { tensor, index } => {
                write!(
                    f,
                    "tensor {tensor} has a non-finite value at index {index}: cannot quantize"
                )
            }
        }
    }
}

impl std::error::Error for WeightsError {}

/// Serializes all persistent state of `net` into a weight blob.
///
/// Read-only: walks the network's shared-ref state visitor, so a network
/// being served (or borrowed elsewhere) can be checkpointed without `&mut`
/// access and without staging per-tensor copies.
pub fn save_weights(net: &Network) -> Vec<u8> {
    // First pass: size the blob exactly.
    let mut count: u32 = 0;
    let mut payload = 0usize;
    for node in net.nodes() {
        node.visit_state(&mut |t| {
            count += 1;
            payload += 4 + 4 * t.len();
        });
    }
    let mut out = Vec::with_capacity(8 + payload + 4);
    out.put_slice(MAGIC);
    out.put_u32_le(count);
    for node in net.nodes() {
        node.visit_state(&mut |t| {
            out.put_u32_le(t.len() as u32);
            for &v in t.data() {
                out.put_f32_le(v);
            }
        });
    }
    let checksum = crc32(&out);
    out.put_u32_le(checksum);
    out
}

/// Serializes all persistent state of `net` under `encoding`.
///
/// [`WeightEncoding::F32`] delegates to [`save_weights`] — byte-for-byte
/// the legacy `MNW1` blob. `F16` / `I8` write the `MNQ1` layout (see
/// module docs): roughly 0.50x / 0.25x the f32 payload bytes, at the
/// precision cost documented on [`WeightEncoding`]. [`load_weights`]
/// restores either magic transparently.
///
/// # Errors
///
/// [`WeightsError::NonFinite`] when a tensor contains NaN or ±Inf —
/// low-precision encodings cannot represent them faithfully, and a
/// non-finite weight is corrupt regardless, so the save fails loudly
/// instead of burying the problem in an artifact.
pub fn save_weights_quantized(
    net: &Network,
    encoding: WeightEncoding,
) -> Result<Vec<u8>, WeightsError> {
    if encoding == WeightEncoding::F32 {
        return Ok(save_weights(net));
    }
    // First pass: size the blob exactly.
    let mut count: u32 = 0;
    let mut payload = 0usize;
    for node in net.nodes() {
        node.visit_state(&mut |t| {
            count += 1;
            payload += 1 + 4 + encoding.payload_bytes(t.len());
        });
    }
    let mut out = Vec::with_capacity(8 + payload + 4);
    out.put_slice(MAGIC_QUANT);
    out.put_u32_le(count);
    let mut tensor_idx = 0usize;
    let mut bad: Option<WeightsError> = None;
    for node in net.nodes() {
        node.visit_state(&mut |t| {
            if bad.is_some() {
                return;
            }
            out.put_u8(encoding.tag());
            out.put_u32_le(t.len() as u32);
            match encoding {
                WeightEncoding::F32 => unreachable!("handled above"),
                WeightEncoding::F16 => match quant::quantize_f16(t.data()) {
                    Ok(halves) => {
                        for h in halves {
                            out.put_u16_le(h);
                        }
                    }
                    Err(quant::QuantError::NonFinite { index, .. }) => {
                        bad = Some(WeightsError::NonFinite {
                            tensor: tensor_idx,
                            index,
                        });
                    }
                },
                WeightEncoding::I8 => match quant::quantize_i8(t.data()) {
                    Ok((scale, codes)) => {
                        out.put_f32_le(scale);
                        for q in codes {
                            out.put_i8(q);
                        }
                    }
                    Err(quant::QuantError::NonFinite { index, .. }) => {
                        bad = Some(WeightsError::NonFinite {
                            tensor: tensor_idx,
                            index,
                        });
                    }
                },
            }
            tensor_idx += 1;
        });
    }
    if let Some(err) = bad {
        return Err(err);
    }
    let checksum = crc32(&out);
    out.put_u32_le(checksum);
    Ok(out)
}

/// Restores a weight blob — full-precision `MNW1` ([`save_weights`]) or
/// quantized `MNQ1` ([`save_weights_quantized`]), dispatched on the magic
/// — into a structurally identical network. Quantized tensors are
/// dequantized into the network's `f32` storage, so callers never see
/// the encoding.
///
/// # Errors
///
/// Returns a [`WeightsError`] if the blob is malformed or does not match
/// the network's structure. On error the network may be partially updated.
pub fn load_weights(net: &mut Network, blob: &[u8]) -> Result<(), WeightsError> {
    // Header (8) plus trailing checksum (4) is the smallest valid blob.
    if blob.len() < 12 {
        return Err(WeightsError::Truncated);
    }
    let quantized = match &blob[..4] {
        m if m == MAGIC => false,
        m if m == MAGIC_QUANT => true,
        _ => return Err(WeightsError::BadMagic),
    };
    // Verify integrity before parsing a single tensor: corruption inside
    // a numeric payload parses cleanly and would silently poison the
    // network.
    let (payload, stored) = blob.split_at(blob.len() - 4);
    // mn-lint: allow(no-panic-in-serve, reason = "split_at(len - 4) yields exactly a 4-byte tail (the length was bounds-checked above), so the TryInto<[u8; 4]> conversion cannot fail")
    let expected = u32::from_le_bytes(stored.try_into().expect("4-byte checksum"));
    let actual = crc32(payload);
    if expected != actual {
        return Err(WeightsError::ChecksumMismatch { expected, actual });
    }
    let mut blob = &payload[4..];
    let count = blob.get_u32_le() as usize;
    let mut targets: Vec<&mut mn_tensor::Tensor> = net
        .nodes_mut()
        .iter_mut()
        .flat_map(|n| n.state_mut())
        .collect();
    if targets.len() != count {
        return Err(WeightsError::ShapeMismatch {
            detail: format!("blob has {count} tensors, network has {}", targets.len()),
        });
    }
    for (i, target) in targets.iter_mut().enumerate() {
        let encoding = if quantized {
            if blob.remaining() < 1 {
                return Err(WeightsError::Truncated);
            }
            let tag = blob.get_u8();
            WeightEncoding::from_tag(tag).ok_or(WeightsError::BadEncoding { tag, tensor: i })?
        } else {
            WeightEncoding::F32
        };
        if blob.remaining() < 4 {
            return Err(WeightsError::Truncated);
        }
        let len = blob.get_u32_le() as usize;
        if len != target.len() {
            return Err(WeightsError::ShapeMismatch {
                detail: format!(
                    "tensor {i}: blob has {len} elements, network has {}",
                    target.len()
                ),
            });
        }
        if blob.remaining() < encoding.payload_bytes(len) {
            return Err(WeightsError::Truncated);
        }
        match encoding {
            WeightEncoding::F32 => {
                // The payload length was bounds-checked just above.
                let (payload, rest) = blob.split_at(4 * len);
                for (v, b) in target.data_mut().iter_mut().zip(payload.chunks_exact(4)) {
                    *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
                blob = rest;
            }
            WeightEncoding::F16 => {
                for v in target.data_mut() {
                    *v = quant::f32_from_f16_bits(blob.get_u16_le());
                }
            }
            WeightEncoding::I8 => {
                let scale = blob.get_f32_le();
                for v in target.data_mut() {
                    *v = blob.get_i8() as f32 * scale;
                }
            }
        }
    }
    if blob.has_remaining() {
        return Err(WeightsError::TrailingBytes {
            count: blob.remaining(),
        });
    }
    Ok(())
}

/// Serializes a network as a self-describing checkpoint: `u32`
/// architecture-JSON length, the JSON, then the [`save_weights`] blob.
///
/// [`load_network`] rebuilds the network from these bytes alone — no
/// pre-built target network is needed, which is what lets a serving
/// process cold-start an ensemble from disk.
pub fn save_network(net: &Network) -> Vec<u8> {
    // mn-lint: allow(no-panic-in-serve, reason = "serializing an in-memory Architecture (plain enums/structs, string-keyed, no custom Serialize) cannot fail; serde_json errors only on those or on I/O, and this writes to a String")
    let arch_json = serde_json::to_string(net.arch()).expect("architecture serializes");
    let weights = save_weights(net);
    let mut out = Vec::with_capacity(4 + arch_json.len() + weights.len());
    out.put_u32_le(arch_json.len() as u32);
    out.put_slice(arch_json.as_bytes());
    out.put_slice(&weights);
    out
}

/// [`save_network`] with a quantized weight section: `u32`
/// architecture-JSON length, the JSON, then the
/// [`save_weights_quantized`] blob. [`load_network`] restores either
/// variant transparently (the weight magic distinguishes them).
///
/// # Errors
///
/// Returns [`WeightsError::NonFinite`] if any tensor contains NaN or
/// ±Inf (see [`save_weights_quantized`]).
pub fn save_network_quantized(
    net: &Network,
    encoding: WeightEncoding,
) -> Result<Vec<u8>, WeightsError> {
    // mn-lint: allow(no-panic-in-serve, reason = "serializing an in-memory Architecture (plain enums/structs, string-keyed, no custom Serialize) cannot fail; serde_json errors only on those or on I/O, and this writes to a String")
    let arch_json = serde_json::to_string(net.arch()).expect("architecture serializes");
    let weights = save_weights_quantized(net, encoding)?;
    let mut out = Vec::with_capacity(4 + arch_json.len() + weights.len());
    out.put_u32_le(arch_json.len() as u32);
    out.put_slice(arch_json.as_bytes());
    out.put_slice(&weights);
    Ok(out)
}

/// Rebuilds a network from a [`save_network`] checkpoint: parses and
/// validates the architecture JSON, constructs the network, and restores
/// every persistent tensor. The result is bitwise identical to the saved
/// network's state.
///
/// # Errors
///
/// Returns [`WeightsError::BadArchitecture`] for an unparseable or
/// invalid architecture section, and the usual [`WeightsError`]s for a
/// malformed weight blob.
pub fn load_network(mut blob: &[u8]) -> Result<Network, WeightsError> {
    if blob.remaining() < 4 {
        return Err(WeightsError::Truncated);
    }
    let arch_len = blob.get_u32_le() as usize;
    if blob.remaining() < arch_len {
        return Err(WeightsError::Truncated);
    }
    let (arch_bytes, rest) = blob.split_at(arch_len);
    blob = rest;
    let arch_json = std::str::from_utf8(arch_bytes).map_err(|e| WeightsError::BadArchitecture {
        detail: format!("architecture JSON is not UTF-8: {e}"),
    })?;
    let arch: Architecture =
        serde_json::from_str(arch_json).map_err(|e| WeightsError::BadArchitecture {
            detail: format!("architecture JSON does not parse: {e}"),
        })?;
    arch.validate().map_err(|e| WeightsError::BadArchitecture {
        detail: e.to_string(),
    })?;
    // Zero-init target: every persistent tensor is overwritten by
    // load_weights below, so sampling a random init first would only
    // burn cold-start CPU (roughly half of it for large members).
    let mut net = Network::zeroed(&arch);
    load_weights(&mut net, blob)?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Architecture, ConvBlockSpec, InputSpec, ResBlockSpec};
    use crate::{Mode, Network};
    use mn_tensor::Tensor;

    fn archs() -> Vec<Architecture> {
        let input = InputSpec::new(3, 8, 8);
        vec![
            Architecture::mlp("m", input, 5, vec![8]),
            Architecture::plain(
                "p",
                input,
                5,
                vec![ConvBlockSpec::repeated(3, 4, 1)],
                vec![8],
            ),
            Architecture::residual("r", input, 5, vec![ResBlockSpec::new(1, 4, 3)]),
        ]
    }

    #[test]
    fn round_trip_restores_exact_outputs() {
        for arch in archs() {
            let mut original = Network::seeded(&arch, 7);
            // Perturb running stats so they are part of the round trip.
            let x = Tensor::randn([4, 3, 8, 8], 1.0, &mut rand::thread_rng());
            original.forward(&x, Mode::Train);
            original.clear_caches();
            let blob = save_weights(&original);

            let mut restored = Network::seeded(&arch, 999); // different init
            load_weights(&mut restored, &blob).unwrap();
            let a = original.forward(&x, Mode::Eval);
            let b = restored.forward(&x, Mode::Eval);
            assert_eq!(a.data(), b.data(), "round trip not exact for {}", arch.name);
        }
    }

    #[test]
    fn network_checkpoint_rebuilds_from_bytes_alone() {
        for arch in archs() {
            let mut original = Network::seeded(&arch, 21);
            let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut rand::thread_rng());
            original.forward(&x, Mode::Train); // perturb running stats
            original.clear_caches();
            let bytes = save_network(&original);
            let mut rebuilt = load_network(&bytes).unwrap();
            assert_eq!(rebuilt.arch(), original.arch());
            let a = original.forward(&x, Mode::Eval);
            let b = rebuilt.forward(&x, Mode::Eval);
            assert_eq!(a.data(), b.data(), "checkpoint not exact for {}", arch.name);
        }
    }

    #[test]
    fn network_checkpoint_rejects_corruption() {
        let input = InputSpec::new(3, 8, 8);
        let net = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 1);
        let bytes = save_network(&net);
        // Too short for even the length prefix.
        assert!(matches!(
            load_network(&bytes[..3]),
            Err(WeightsError::Truncated)
        ));
        // Length prefix pointing past the end.
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load_network(&huge), Err(WeightsError::Truncated)));
        // Garbage in the JSON section.
        let mut bad_json = bytes.clone();
        bad_json[4] = b'!';
        assert!(matches!(
            load_network(&bad_json),
            Err(WeightsError::BadArchitecture { .. })
        ));
        // Truncated weight section: the stored checksum is cut in half,
        // so the trailing-u32 no longer matches the payload.
        assert!(matches!(
            load_network(&bytes[..bytes.len() - 2]),
            Err(WeightsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_network() {
        let input = InputSpec::new(3, 8, 8);
        let small = Network::seeded(&Architecture::mlp("s", input, 5, vec![8]), 1);
        let mut big = Network::seeded(&Architecture::mlp("b", input, 5, vec![16]), 1);
        let blob = save_weights(&small);
        assert!(matches!(
            load_weights(&mut big, &blob),
            Err(WeightsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let input = InputSpec::new(3, 8, 8);
        let mut net = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 1);
        assert_eq!(
            load_weights(&mut net, b"junk"),
            Err(WeightsError::Truncated)
        );
        assert_eq!(
            load_weights(&mut net, b"JUNKJUNKJUNK"),
            Err(WeightsError::BadMagic)
        );
        // Valid header, truncated body: checksum catches it first.
        let mut blob = save_weights(&net);
        blob.truncate(blob.len() - 2);
        assert!(matches!(
            load_weights(&mut net, &blob),
            Err(WeightsError::ChecksumMismatch { .. })
        ));
        // Naive trailing byte: the checksum is no longer where the
        // saver put it, so this too reads as corruption.
        let mut blob = save_weights(&net);
        blob.push(0);
        assert!(matches!(
            load_weights(&mut net, &blob),
            Err(WeightsError::ChecksumMismatch { .. })
        ));
        // Trailing bytes with a re-sealed checksum: structural check
        // still catches the extra payload.
        let mut blob = save_weights(&net);
        blob.truncate(blob.len() - 4);
        blob.push(0);
        let fixed = crc32(&blob);
        blob.extend_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            load_weights(&mut net, &blob),
            Err(WeightsError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn checksum_detects_bit_flip() {
        let input = InputSpec::new(3, 8, 8);
        let net = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 1);
        let clean = save_weights(&net);
        // Flip one bit in the middle of an f32 payload — structurally the
        // blob still parses, so only the checksum can catch this.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = {
            let mut target = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 2);
            load_weights(&mut target, &flipped).unwrap_err()
        };
        match err {
            WeightsError::ChecksumMismatch { expected, actual } => {
                assert_ne!(expected, actual);
                assert_eq!(expected, crc32(&clean[..clean.len() - 4]));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // The clean blob still restores.
        let mut target = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 2);
        load_weights(&mut target, &clean).unwrap();
    }

    #[test]
    fn crc32_matches_known_value_and_bytewise_oracle() {
        use rand::{RngCore, SeedableRng};
        // The standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let oracle = |bytes: &[u8]| !crc32_bytewise(0xFFFF_FFFF, bytes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut buf = vec![0u8; 5000];
        buf.iter_mut().for_each(|b| *b = rng.next_u32() as u8);
        // Every short length (none, only a tail, whole words, both) ...
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), oracle(&buf[..len]), "length {len}");
        }
        // ... and multi-KB buffers starting at each of the 8 alignments.
        for start in 0..8 {
            for len in [1024, 2049, 4991] {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), oracle(bytes), "start {start}, length {len}");
            }
        }
    }

    /// Max absolute weight drift after a save/load round trip under
    /// `encoding`, across every persistent tensor.
    fn round_trip_drift(net: &Network, encoding: WeightEncoding) -> f32 {
        let blob = save_weights_quantized(net, encoding).unwrap();
        let mut restored = Network::seeded(net.arch(), 4242);
        load_weights(&mut restored, &blob).unwrap();
        let mut originals: Vec<f32> = Vec::new();
        for node in net.nodes() {
            node.visit_state(&mut |t| originals.extend_from_slice(t.data()));
        }
        let mut drift = 0.0f32;
        let mut i = 0usize;
        for node in restored.nodes() {
            node.visit_state(&mut |t| {
                for v in t.data() {
                    drift = drift.max((v - originals[i]).abs());
                    i += 1;
                }
            });
        }
        assert_eq!(i, originals.len());
        drift
    }

    #[test]
    fn f32_quantized_save_is_bit_identical_to_legacy() {
        for arch in archs() {
            let net = Network::seeded(&arch, 7);
            let legacy = save_weights(&net);
            let quantized = save_weights_quantized(&net, WeightEncoding::F32).unwrap();
            assert_eq!(legacy, quantized, "{}", arch.name);
        }
    }

    #[test]
    fn quantized_round_trip_within_encoding_bounds() {
        for arch in archs() {
            let net = Network::seeded(&arch, 11);
            // f16 has 11 significand bits: relative error ≤ 2^-11, and
            // seeded init keeps weights comfortably within ±4.
            assert!(round_trip_drift(&net, WeightEncoding::F16) <= 4.0 / 2048.0);
            // i8 symmetric: absolute error ≤ scale/2 = max_abs/254.
            let mut max_abs = 0.0f32;
            for node in net.nodes() {
                node.visit_state(&mut |t| {
                    for v in t.data() {
                        max_abs = max_abs.max(v.abs());
                    }
                });
            }
            assert!(round_trip_drift(&net, WeightEncoding::I8) <= max_abs / 254.0 + 1e-7);
            // f32 is exact.
            assert_eq!(round_trip_drift(&net, WeightEncoding::F32), 0.0);
        }
    }

    #[test]
    fn quantized_sizes_shrink_as_documented() {
        let input = InputSpec::new(3, 8, 8);
        let arch = Architecture::mlp("m", input, 10, vec![64, 64]);
        let net = Network::seeded(&arch, 3);
        let f32_len = save_weights_quantized(&net, WeightEncoding::F32)
            .unwrap()
            .len() as f64;
        let f16_len = save_weights_quantized(&net, WeightEncoding::F16)
            .unwrap()
            .len() as f64;
        let i8_len = save_weights_quantized(&net, WeightEncoding::I8)
            .unwrap()
            .len() as f64;
        assert!(f16_len / f32_len < 0.55, "f16 ratio {}", f16_len / f32_len);
        assert!(i8_len / f32_len < 0.30, "i8 ratio {}", i8_len / f32_len);
    }

    #[test]
    fn quantized_save_rejects_non_finite_with_location() {
        let input = InputSpec::new(3, 8, 8);
        let mut net = Network::seeded(&Architecture::mlp("m", input, 5, vec![8]), 1);
        // Poison one element of the first persistent tensor.
        let mut poisoned = false;
        for node in net.nodes_mut() {
            for t in node.state_mut() {
                if !poisoned {
                    t.data_mut()[2] = f32::NAN;
                    poisoned = true;
                }
            }
        }
        assert!(poisoned);
        for encoding in [WeightEncoding::F16, WeightEncoding::I8] {
            match save_weights_quantized(&net, encoding) {
                Err(WeightsError::NonFinite { tensor, index }) => {
                    assert_eq!((tensor, index), (0, 2));
                }
                other => panic!("expected NonFinite, got {other:?}"),
            }
        }
        // F32 stays infallible: the legacy format stores bits verbatim.
        save_weights_quantized(&net, WeightEncoding::F32).unwrap();
    }

    #[test]
    fn quantized_blob_detects_bit_flip() {
        let input = InputSpec::new(3, 8, 8);
        let arch = Architecture::mlp("m", input, 5, vec![8]);
        let net = Network::seeded(&arch, 1);
        for encoding in [WeightEncoding::F16, WeightEncoding::I8] {
            let clean = save_weights_quantized(&net, encoding).unwrap();
            let mut flipped = clean.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x01;
            let mut target = Network::seeded(&arch, 2);
            assert!(
                matches!(
                    load_weights(&mut target, &flipped),
                    Err(WeightsError::ChecksumMismatch { .. })
                ),
                "{encoding:?} bit flip not caught"
            );
            load_weights(&mut target, &clean).unwrap();
        }
    }

    #[test]
    fn quantized_blob_rejects_unknown_encoding_tag() {
        let input = InputSpec::new(3, 8, 8);
        let arch = Architecture::mlp("m", input, 5, vec![8]);
        let net = Network::seeded(&arch, 1);
        let mut blob = save_weights_quantized(&net, WeightEncoding::F16).unwrap();
        // Byte 8 is the first tensor's encoding tag; reseal so the
        // checksum passes and the structural check must catch it.
        blob[8] = 0x7F;
        let len = blob.len();
        let fixed = crc32(&blob[..len - 4]);
        blob[len - 4..].copy_from_slice(&fixed.to_le_bytes());
        let mut target = Network::seeded(&arch, 2);
        assert!(matches!(
            load_weights(&mut target, &blob),
            Err(WeightsError::BadEncoding {
                tag: 0x7F,
                tensor: 0
            })
        ));
    }

    #[test]
    fn quantized_network_checkpoint_round_trips() {
        for arch in archs() {
            let mut original = Network::seeded(&arch, 21);
            let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut rand::thread_rng());
            original.forward(&x, Mode::Train); // perturb running stats
            original.clear_caches();
            let a = original.forward(&x, Mode::Eval);
            for (encoding, tol) in [
                (WeightEncoding::F32, 0.0),
                (WeightEncoding::F16, 0.05),
                (WeightEncoding::I8, 0.35),
            ] {
                let bytes = save_network_quantized(&original, encoding).unwrap();
                let mut rebuilt = load_network(&bytes).unwrap();
                assert_eq!(rebuilt.arch(), original.arch());
                let b = rebuilt.forward(&x, Mode::Eval);
                let drift = mn_tensor::max_abs_diff(a.data(), b.data());
                assert!(
                    drift <= tol,
                    "{} under {:?}: output drift {drift} > {tol}",
                    arch.name,
                    encoding
                );
            }
        }
    }

    #[test]
    fn encoding_labels_and_tags_round_trip() {
        for encoding in [WeightEncoding::F32, WeightEncoding::F16, WeightEncoding::I8] {
            assert_eq!(WeightEncoding::from_tag(encoding.tag()), Some(encoding));
        }
        assert_eq!(WeightEncoding::from_tag(3), None);
        assert_eq!(WeightEncoding::F32.label(), "f32");
        assert_eq!(WeightEncoding::F16.label(), "f16");
        assert_eq!(WeightEncoding::I8.label(), "i8");
        assert_eq!(WeightEncoding::F32.payload_bytes(10), 40);
        assert_eq!(WeightEncoding::F16.payload_bytes(10), 20);
        assert_eq!(WeightEncoding::I8.payload_bytes(10), 14);
    }
}
