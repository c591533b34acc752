//! Versioned, checksummed on-disk persistence for networks and
//! resumable training state.
//!
//! # Container format
//!
//! Every file this module writes is one *container*:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LEAPMECP"
//! 8       4     format version (u32 LE, currently 1)
//! 12      1     kind   (0 = Mlp model, 1 = training state, 2 = pipeline
//!               model, 3 = property-feature cache)
//! 13      1     dtype  (0 = f32; other values reserved)
//! 14      8     payload length (u64 LE)
//! 22      n     payload (kind-specific binary encoding)
//! 22+n    8     CRC-64/XZ of the payload (u64 LE)
//! ```
//!
//! Containers are written via write-to-temp + fsync + atomic rename, so
//! a reader can never observe a half-written file at the final path; a
//! torn write that somehow does reach the destination (simulated by the
//! `torn` fault kind) is caught by the length and checksum checks and
//! surfaces as a typed [`CheckpointError`], never a silently wrong
//! model.
//!
//! All multi-byte values are little-endian; `f32` round-trips bitwise
//! through `to_le_bytes`, so save → load reproduces a model exactly.

use crate::layers::{Activation, Dense};
use crate::matrix::Matrix;
use crate::network::Mlp;
use crate::optim::ParamState;
use leapme_data::io::atomic_write;
use std::path::Path;
use std::sync::OnceLock;

/// First 8 bytes of every container.
pub const MAGIC: [u8; 8] = *b"LEAPMECP";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Container kind: a standalone [`Mlp`] model.
pub const KIND_MODEL: u8 = 0;

/// Container kind: mid-schedule resumable training state.
pub const KIND_TRAIN_STATE: u8 = 1;

/// Container kind: a full pipeline model (network + scaler + feature
/// configuration), written by `leapme-core`.
pub const KIND_PIPELINE: u8 = 2;

/// Container kind: a persisted `PropertyFeatureStore` (fingerprinted
/// property-feature cache), written by `leapme-core`.
pub const KIND_FEATURE_CACHE: u8 = 3;

/// Container kind: the serve layer's resident-state snapshot (dataset +
/// similarity graph + generation), written by `leapme-serve` before
/// every integration swap so a killed process recovers the last good
/// generation bitwise.
pub const KIND_RESIDENT: u8 = 4;

/// Payload dtype tag: `f32` parameters (the only dtype currently
/// written; the byte exists so future formats can widen without a
/// version bump).
pub const DTYPE_F32: u8 = 0;

const HEADER_LEN: usize = 8 + 4 + 1 + 1 + 8;
const TRAILER_LEN: usize = 8;

/// Errors from checkpoint reading/writing. Every corruption mode maps
/// to a distinct variant so callers (and tests) can tell a torn file
/// from a version skew from silent bit rot.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the container magic — not a
    /// checkpoint at all, or its header was corrupted.
    InvalidMagic,
    /// The container was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The container holds a different kind of payload than requested
    /// (e.g. a training state where a model was expected).
    WrongKind {
        /// Kind the caller asked for.
        expected: u8,
        /// Kind recorded in the file.
        found: u8,
    },
    /// The payload dtype tag is not one this build understands.
    UnsupportedDtype(u8),
    /// The file is shorter than its header promises (torn write or
    /// short read).
    Truncated {
        /// Bytes the container needs.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match — the bytes were corrupted
    /// after the container was written.
    ChecksumMismatch {
        /// CRC recorded in the file.
        expected: u64,
        /// CRC of the payload as read.
        actual: u64,
    },
    /// The payload decoded to something structurally invalid.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::InvalidMagic => write!(f, "not a LEAPME checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads {supported})"
            ),
            CheckpointError::WrongKind { expected, found } => write!(
                f,
                "wrong checkpoint kind: expected {expected}, found {found}"
            ),
            CheckpointError::UnsupportedDtype(d) => {
                write!(f, "unsupported checkpoint dtype tag {d}")
            }
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: need {expected} bytes, have {actual}"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:016x}, computed {actual:016x}"
            ),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint payload: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------
// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all-ones).
// ---------------------------------------------------------------------

fn crc64_tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        const POLY: u64 = 0xC96C_5795_D787_0F42; // reflected 0x42F0E1EBA9EA3693
        let mut tables = [[0u64; 256]; 8];
        let mut i = 0usize;
        while i < 256 {
            let mut crc = i as u64;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        // Derived tables for slicing-by-8: tables[t][i] advances the
        // CRC of byte `i` through `t` additional zero bytes.
        for t in 1..8 {
            for i in 0..256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC-64/XZ of `bytes` — the checksum guarding every container payload
/// and every journal record in `leapme-core`.
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_update(0, bytes)
}

/// Streaming CRC-64/XZ: extend `crc`, the checksum of everything fed
/// so far (0 for nothing), by `bytes`. Feeding a buffer in any split
/// gives the same value as [`crc64`] over the whole, so a file can be
/// checksummed through a fixed buffer.
///
/// Implemented as slicing-by-8 (eight parallel lookup tables consuming
/// one `u64` per step) because the v2 container verifies whole mapped
/// sections at open time, making checksum throughput part of the
/// model-open latency budget.
pub fn crc64_update(crc: u64, bytes: &[u8]) -> u64 {
    let t = crc64_tables();
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = crc ^ u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// Little-endian binary encoder/decoder.
// ---------------------------------------------------------------------

/// Append-only little-endian byte encoder for container payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` bitwise.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `f32` slice.
    pub fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f32(x);
        }
    }

    /// Append a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a container payload; every read is bounds-checked and
/// underruns surface as [`CheckpointError::Truncated`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                expected: self.pos + n,
                actual: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f32` bitwise.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a length prefix that promises `size`-byte items; rejects
    /// lengths that cannot fit in the remaining bytes, so a corrupted
    /// prefix cannot trigger an absurd allocation.
    fn len_prefix(&mut self, size: usize) -> Result<usize, CheckpointError> {
        let len = self.u64()? as usize;
        if len.checked_mul(size).is_none_or(|b| b > self.buf.len() - self.pos) {
            return Err(CheckpointError::Truncated {
                expected: self.pos + len.saturating_mul(size),
                actual: self.buf.len(),
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let len = self.len_prefix(4)?;
        (0..len).map(|_| self.f32()).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.len_prefix(8)?;
        (0..len).map(|_| self.u64()).collect()
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Assert the payload was consumed exactly.
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} unread trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Container I/O (atomic write, checksum-verified read, fault hooks).
// ---------------------------------------------------------------------

fn container_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.push(DTYPE_F32);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out
}

/// Fault hook: simulate a write failure at `nn.checkpoint.write`. A
/// `torn` fault leaves a half-written file *at the destination* —
/// deliberately bypassing the atomic rename — so tests can prove the
/// reader rejects it. Shared with the v2 writer in [`crate::container2`].
#[cfg(feature = "faults")]
pub(crate) fn injected_write_fault(path: &Path, bytes: &[u8]) -> Option<std::io::Error> {
    match leapme_faults::fires(leapme_faults::sites::CHECKPOINT_WRITE) {
        Some(leapme_faults::FaultKind::Torn) => {
            let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
            Some(std::io::Error::other("injected fault: torn checkpoint write"))
        }
        Some(leapme_faults::FaultKind::Io) => {
            Some(std::io::Error::other("injected fault: checkpoint write error"))
        }
        _ => None,
    }
}

#[cfg(not(feature = "faults"))]
pub(crate) fn injected_write_fault(_path: &Path, _bytes: &[u8]) -> Option<std::io::Error> {
    None
}

/// Fault hook: corrupt a read at `nn.checkpoint.read` with a single
/// visit to the fault site (a short read drops the tail, a bit-flip
/// flips one payload bit, `io` fails the read outright). Shared with
/// the v2 open path in [`crate::container2`].
#[cfg(feature = "faults")]
pub(crate) fn injected_read_fault(bytes: &mut Vec<u8>) -> Result<(), CheckpointError> {
    match leapme_faults::fires(leapme_faults::sites::CHECKPOINT_READ) {
        Some(leapme_faults::FaultKind::ShortRead) => {
            let keep = bytes.len() / 2;
            bytes.truncate(keep);
        }
        Some(leapme_faults::FaultKind::BitFlip) if !bytes.is_empty() => {
            let pos = bytes.len().saturating_sub(1) * 3 / 4;
            bytes[pos] ^= 0x10;
        }
        Some(leapme_faults::FaultKind::Io) => {
            return Err(CheckpointError::Io(std::io::Error::other(
                "injected fault: checkpoint read error",
            )));
        }
        _ => {}
    }
    Ok(())
}

#[cfg(not(feature = "faults"))]
pub(crate) fn injected_read_fault(_bytes: &mut Vec<u8>) -> Result<(), CheckpointError> {
    Ok(())
}

/// Write `payload` to `path` as a `kind` container, atomically.
pub fn write_container(path: &Path, kind: u8, payload: &[u8]) -> Result<(), CheckpointError> {
    let bytes = container_bytes(kind, payload);
    if let Some(e) = injected_write_fault(path, &bytes) {
        return Err(CheckpointError::Io(e));
    }
    atomic_write(path, &bytes)?;
    Ok(())
}

/// Read and verify a `kind` container from `path`, returning the
/// payload. Every validation failure is a distinct typed error.
pub fn read_container(path: &Path, expected_kind: u8) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = std::fs::read(path)?;
    injected_read_fault(&mut bytes)?;
    parse_container(&bytes, expected_kind)
}

/// Validate raw container bytes and return the payload.
pub fn parse_container(bytes: &[u8], expected_kind: u8) -> Result<Vec<u8>, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        // Too short to even check the magic reliably; if what's there
        // doesn't match the magic prefix, call it a foreign file.
        if !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
            return Err(CheckpointError::InvalidMagic);
        }
        return Err(CheckpointError::Truncated {
            expected: HEADER_LEN + TRAILER_LEN,
            actual: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::InvalidMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = bytes[12];
    if kind != expected_kind {
        return Err(CheckpointError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let dtype = bytes[13];
    if dtype != DTYPE_F32 {
        return Err(CheckpointError::UnsupportedDtype(dtype));
    }
    let payload_len = u64::from_le_bytes(bytes[14..22].try_into().expect("8 bytes")) as usize;
    let expected_total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or(CheckpointError::Malformed("payload length overflows".into()))?;
    match bytes.len().cmp(&expected_total) {
        std::cmp::Ordering::Less => {
            return Err(CheckpointError::Truncated {
                expected: expected_total,
                actual: bytes.len(),
            })
        }
        std::cmp::Ordering::Greater => {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after container",
                bytes.len() - expected_total
            )))
        }
        std::cmp::Ordering::Equal => {}
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let recorded = u64::from_le_bytes(
        bytes[HEADER_LEN + payload_len..].try_into().expect("8 bytes"),
    );
    let actual = crc64(payload);
    if recorded != actual {
        return Err(CheckpointError::ChecksumMismatch {
            expected: recorded,
            actual,
        });
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------
// Model payload codec.
// ---------------------------------------------------------------------

fn encode_dense(e: &mut Encoder, layer: &Dense) {
    e.u64(layer.in_dim() as u64);
    e.u64(layer.out_dim() as u64);
    e.u8(match layer.activation {
        Activation::Relu => 0,
        Activation::Identity => 1,
    });
    e.f32s(layer.weights.data());
    e.f32s(&layer.bias);
}

fn decode_dense(d: &mut Decoder) -> Result<Dense, CheckpointError> {
    let in_dim = d.u64()? as usize;
    let out_dim = d.u64()? as usize;
    let activation = match d.u8()? {
        0 => Activation::Relu,
        1 => Activation::Identity,
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown activation tag {other}"
            )))
        }
    };
    let weights = d.f32s()?;
    let bias = d.f32s()?;
    if in_dim.checked_mul(out_dim) != Some(weights.len()) || bias.len() != out_dim {
        return Err(CheckpointError::Malformed(format!(
            "layer shape {in_dim}x{out_dim} does not match {} weights / {} biases",
            weights.len(),
            bias.len()
        )));
    }
    Ok(Dense {
        weights: Matrix::from_vec(in_dim, out_dim, weights),
        bias,
        activation,
    })
}

/// Encode an [`Mlp`]'s layers into `e` (the `KIND_MODEL` payload, also
/// embedded inside pipeline-model containers by `leapme-core`).
pub fn encode_mlp(e: &mut Encoder, net: &Mlp) {
    let layers = net.layers();
    e.u32(layers.len() as u32);
    for layer in layers {
        encode_dense(e, layer);
    }
}

/// Decode an [`Mlp`] previously written by [`encode_mlp`], validating
/// that consecutive layer shapes chain.
pub fn decode_mlp(d: &mut Decoder) -> Result<Mlp, CheckpointError> {
    let n = d.u32()? as usize;
    if n == 0 {
        return Err(CheckpointError::Malformed("network with no layers".into()));
    }
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(decode_dense(d)?);
    }
    for w in layers.windows(2) {
        if w[0].out_dim() != w[1].in_dim() {
            return Err(CheckpointError::Malformed(format!(
                "layer chain broken: {} outputs feed {} inputs",
                w[0].out_dim(),
                w[1].in_dim()
            )));
        }
    }
    Ok(Mlp::from_layers(layers))
}

fn encode_param_state(e: &mut Encoder, s: &ParamState) {
    let (m, v, step) = s.parts();
    e.f32s(m);
    e.f32s(v);
    e.u64(step);
}

fn decode_param_state(d: &mut Decoder) -> Result<ParamState, CheckpointError> {
    let m = d.f32s()?;
    let v = d.f32s()?;
    let step = d.u64()?;
    Ok(ParamState::from_parts(m, v, step))
}

impl Mlp {
    /// Save the network to `path` as a checksummed container
    /// (write-to-temp + fsync + atomic rename). [`Self::load`] restores
    /// it bitwise.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut e = Encoder::new();
        encode_mlp(&mut e, self);
        write_container(path, KIND_MODEL, &e.finish())
    }

    /// Load a network previously written by [`Self::save`]. Torn,
    /// truncated, bit-flipped, or version-skewed files yield typed
    /// [`CheckpointError`]s — a corrupt model is never returned.
    pub fn load(path: &Path) -> Result<Mlp, CheckpointError> {
        let payload = read_container(path, KIND_MODEL)?;
        let mut d = Decoder::new(&payload);
        let net = decode_mlp(&mut d)?;
        d.done()?;
        Ok(net)
    }
}

// ---------------------------------------------------------------------
// Resumable training state.
// ---------------------------------------------------------------------

/// Identity of a training run: a resume is only valid against a
/// checkpoint whose inputs and schedule match bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TrainFingerprint {
    pub rows: u64,
    pub cols: u64,
    pub labels_crc: u64,
    pub shuffle_seed: u64,
    pub total_epochs: u64,
    pub batch: u64,
}

/// Everything `Mlp::fit_durable` needs to continue a run from an epoch
/// boundary: weights, optimizer moments, RNG state, LR-stage position,
/// the (mutated) epoch order, telemetry so far, and early-stopping
/// progress.
#[derive(Debug, Clone)]
pub(crate) struct TrainState {
    pub fingerprint: TrainFingerprint,
    pub stage: u64,
    pub lr_scale: f32,
    pub retries_left: u64,
    pub rng: [u64; 4],
    pub order: Vec<u64>,
    pub epoch_losses: Vec<f32>,
    pub validation_losses: Vec<f32>,
    pub recoveries: u64,
    pub best_val: f32,
    pub since_best: u64,
    pub layers: Vec<Dense>,
    pub states: Vec<(ParamState, ParamState)>,
    pub best_layers: Option<Vec<Dense>>,
}

impl TrainState {
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut e = Encoder::new();
        let fp = &self.fingerprint;
        for v in [fp.rows, fp.cols, fp.labels_crc, fp.shuffle_seed, fp.total_epochs, fp.batch] {
            e.u64(v);
        }
        e.u64(self.stage);
        e.f32(self.lr_scale);
        e.u64(self.retries_left);
        for w in self.rng {
            e.u64(w);
        }
        e.u64s(&self.order);
        e.f32s(&self.epoch_losses);
        e.f32s(&self.validation_losses);
        e.u64(self.recoveries);
        e.f32(self.best_val);
        e.u64(self.since_best);
        e.u32(self.layers.len() as u32);
        for layer in &self.layers {
            encode_dense(&mut e, layer);
        }
        for (w, b) in &self.states {
            encode_param_state(&mut e, w);
            encode_param_state(&mut e, b);
        }
        match &self.best_layers {
            None => e.u8(0),
            Some(layers) => {
                e.u8(1);
                e.u32(layers.len() as u32);
                for layer in layers {
                    encode_dense(&mut e, layer);
                }
            }
        }
        write_container(path, KIND_TRAIN_STATE, &e.finish())
    }

    pub(crate) fn load(path: &Path) -> Result<TrainState, CheckpointError> {
        let payload = read_container(path, KIND_TRAIN_STATE)?;
        let mut d = Decoder::new(&payload);
        let fingerprint = TrainFingerprint {
            rows: d.u64()?,
            cols: d.u64()?,
            labels_crc: d.u64()?,
            shuffle_seed: d.u64()?,
            total_epochs: d.u64()?,
            batch: d.u64()?,
        };
        let stage = d.u64()?;
        let lr_scale = d.f32()?;
        let retries_left = d.u64()?;
        let rng = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let order = d.u64s()?;
        let epoch_losses = d.f32s()?;
        let validation_losses = d.f32s()?;
        let recoveries = d.u64()?;
        let best_val = d.f32()?;
        let since_best = d.u64()?;
        let n = d.u32()? as usize;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(decode_dense(&mut d)?);
        }
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            states.push((decode_param_state(&mut d)?, decode_param_state(&mut d)?));
        }
        let best_layers = match d.u8()? {
            0 => None,
            1 => {
                let n = d.u32()? as usize;
                let mut best = Vec::with_capacity(n);
                for _ in 0..n {
                    best.push(decode_dense(&mut d)?);
                }
                Some(best)
            }
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown best-layers tag {other}"
                )))
            }
        };
        d.done()?;
        Ok(TrainState {
            fingerprint,
            stage,
            lr_scale,
            retries_left,
            rng,
            order,
            epoch_losses,
            validation_losses,
            recoveries,
            best_val,
            since_best,
            layers,
            states,
            best_layers,
        })
    }
}

/// CRC-64 fingerprint of a label vector (part of the resume identity).
pub(crate) fn labels_crc(labels: &[usize]) -> u64 {
    let mut e = Encoder::new();
    for &l in labels {
        e.u64(l as u64);
    }
    crc64(&e.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Mlp, TrainConfig};
    use crate::schedule::LrSchedule;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_nn_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trained_net() -> Mlp {
        let x = crate::matrix::Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0, 1, 1, 0];
        let mut net = Mlp::new(&[2, 8, 2], 3);
        net.fit(
            &x,
            &y,
            &TrainConfig {
                schedule: LrSchedule::new(vec![(3, 1e-3)]),
                ..TrainConfig::default()
            },
        )
        .unwrap();
        net
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // The streaming form agrees at every split point, including
        // splits inside an 8-byte slice.
        for split in 0..=9 {
            let (a, b) = b"123456789".split_at(split);
            assert_eq!(crc64_update(crc64_update(0, a), b), 0x995D_C9BB_DF19_39FA);
        }
    }

    #[test]
    fn save_load_round_trip_is_bitwise() {
        let net = trained_net();
        let path = tmp("roundtrip.lmp");
        net.save(&path).unwrap();
        let back = Mlp::load(&path).unwrap();
        for (a, b) in net.layers().iter().zip(back.layers()) {
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.bias, b.bias);
            assert_eq!(a.activation, b.activation);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn no_temp_file_left_behind() {
        let net = trained_net();
        let path = tmp("clean.lmp");
        net.save(&path).unwrap();
        let tmp_sibling = path.with_file_name("clean.lmp.tmp");
        assert!(!tmp_sibling.exists(), "temp file survived the rename");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let net = trained_net();
        let path = tmp("truncated.lmp");
        net.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 4, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = Mlp::load(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::InvalidMagic
                ),
                "cut={cut}: {err}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn payload_bit_flip_is_checksum_mismatch() {
        let net = trained_net();
        let path = tmp("bitflip.lmp");
        net.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - TRAILER_LEN) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_corruptions_are_typed() {
        let net = trained_net();
        let path = tmp("header.lmp");
        net.save(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        let mut bad = clean.clone();
        bad[0] ^= 0xFF; // magic
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::InvalidMagic
        ));

        let mut bad = clean.clone();
        bad[8] = 99; // version
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: 99, .. }
        ));

        let mut bad = clean.clone();
        bad[12] = KIND_TRAIN_STATE; // kind
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::WrongKind {
                expected: KIND_MODEL,
                found: KIND_TRAIN_STATE
            }
        ));

        let mut bad = clean.clone();
        bad[13] = 7; // dtype
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::UnsupportedDtype(7)
        ));

        let mut bad = clean;
        bad[14] ^= 0x0F; // payload length
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::Truncated { .. } | CheckpointError::Malformed(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn foreign_file_is_invalid_magic() {
        let path = tmp("foreign.lmp");
        std::fs::write(&path, b"{\"not\": \"a checkpoint\"}").unwrap();
        assert!(matches!(
            Mlp::load(&path).unwrap_err(),
            CheckpointError::InvalidMagic
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Mlp::load(Path::new("/nonexistent/model.lmp")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn corrupt_length_cannot_trigger_huge_allocation() {
        // A payload whose internal length prefix claims far more
        // elements than the payload holds must be rejected, not
        // allocated.
        let mut e = Encoder::new();
        e.u32(1);
        e.u64(2);
        e.u64(2);
        e.u8(0);
        e.u64(u64::MAX / 8); // absurd weight count
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        assert!(matches!(
            decode_mlp(&mut d).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
    }

    mod roundtrip_proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Save → load is bitwise for random layer shapes, and a
            /// flipped byte anywhere in the file yields a typed error
            /// or (for header-field flips that still parse) a different
            /// but *validated* outcome — never a panic.
            #[test]
            fn random_shapes_roundtrip(
                input in 1usize..12,
                hidden in 1usize..10,
                classes in 2usize..5,
                seed in 0u64..1000,
                flip_at_frac in 0usize..100,
            ) {
                let net = Mlp::new(&[input, hidden, classes], seed);
                let path = tmp(&format!("prop_{input}_{hidden}_{classes}_{seed}.lmp"));
                net.save(&path).unwrap();
                let back = Mlp::load(&path).unwrap();
                for (a, b) in net.layers().iter().zip(back.layers()) {
                    prop_assert_eq!(&a.weights, &b.weights);
                    prop_assert_eq!(&a.bias, &b.bias);
                }

                // Corruption sweep: flip one random byte; load must not
                // panic and must not silently return different weights.
                let mut bytes = std::fs::read(&path).unwrap();
                let pos = flip_at_frac * (bytes.len() - 1) / 99;
                bytes[pos] ^= 1 << (seed % 8) as u8;
                let mut rng = StdRng::seed_from_u64(seed);
                let _ = rng.gen::<u64>();
                std::fs::write(&path, &bytes).unwrap();
                match Mlp::load(&path) {
                    Err(_) => {}
                    Ok(loaded) => {
                        // The flip landed somewhere the format does not
                        // cover only if the load still equals the saved
                        // network — anything else is silent corruption.
                        for (a, b) in net.layers().iter().zip(loaded.layers()) {
                            prop_assert_eq!(&a.weights, &b.weights);
                            prop_assert_eq!(&a.bias, &b.bias);
                        }
                    }
                }
                std::fs::remove_file(path).ok();
            }
        }
    }
}
