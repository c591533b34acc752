//! LEAPMECP v2: a zero-copy, section-table container format.
//!
//! The v1 container (see [`crate::checkpoint`]) is parse-on-load: the
//! whole payload is read, checksummed, and decoded f32-by-f32 into
//! freshly allocated `Vec`s — O(bytes) of copying paid on every open,
//! per process and per domain. v2 keeps the same magic and atomic-write
//! discipline but lays the payload out as *named, 64-byte-aligned,
//! individually checksummed raw sections* so a reader can map the file
//! once and hand out typed `&[f32]` views directly over the mapping:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LEAPMECP"           (shared with v1)
//! 8       4     format version (u32 LE, = 2)
//! 12      1     kind   (same kind registry as v1)
//! 13      1     dtype  (container default; sections carry their own)
//! 14      4     section count (u32 LE)
//! 18      8     CRC-64/XZ of the section table bytes
//! 26      38    reserved (zero)
//! 64      n·64  section table, one 64-byte entry per section:
//!                 0   32  name (UTF-8, NUL-padded)
//!                 32  1   section dtype (0 = f32, 1 = raw bytes)
//!                 33  7   reserved (zero)
//!                 40  8   offset from file start (u64 LE, 64-aligned)
//!                 48  8   payload byte length (u64 LE)
//!                 56  8   CRC-64/XZ of the payload bytes
//! …       …     payload sections at their offsets, zero-padded between
//! ```
//!
//! Opening is O(1) in payload size: the header and table are validated
//! eagerly (magic, version, kind, table CRC, name uniqueness, 64-byte
//! alignment, in-bounds non-overlapping extents), while each section's
//! payload CRC is verified lazily on first access and memoized — so a
//! registry can hold many cold domains mapped without paying a
//! checksum sweep for models it never touches. [`V2Container::verify_all`]
//! forces the full sweep for drills and `leapme registry` inspection.
//!
//! The buffer behind the views is an `mmap(2)` of the file where the
//! platform allows (direct syscall — the vendored-offline policy rules
//! out binding crates), falling back to a single `read` into an
//! 8-byte-aligned owned buffer elsewhere, when the file is empty, when
//! the map call fails, or when `LEAPME_NO_MMAP` is set. Either way the
//! base is at least 8-byte aligned and every section offset is 64-byte
//! aligned, so `&[f32]` views are always properly aligned.
//!
//! v1 containers remain readable: [`open_any`] dispatches on the
//! version field, routing v1 files through the legacy parse path.

use crate::checkpoint::{crc64, CheckpointError, DTYPE_F32, MAGIC};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// v2 format version tag.
pub const FORMAT_VERSION_V2: u32 = 2;

/// Section dtype: little-endian `f32` payload, eligible for zero-copy
/// `&[f32]` views.
pub const SECTION_F32: u8 = 0;

/// Section dtype: opaque bytes (JSON, key tables, encoder output).
pub const SECTION_BYTES: u8 = 1;

/// Fixed byte width of the v2 header and of each section-table entry.
const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 64;
const NAME_LEN: usize = 32;

/// How a v2 container's buffer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenPath {
    /// Shared read-only `mmap` of the file — the zero-copy fast path.
    Mmap,
    /// Single `read` into an owned aligned buffer (mmap unavailable,
    /// refused, or disabled via `LEAPME_NO_MMAP`).
    Read,
}

impl OpenPath {
    /// Stable lowercase label for logs, metrics, and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            OpenPath::Mmap => "mmap",
            OpenPath::Read => "read",
        }
    }
}

// ---------------------------------------------------------------------
// Buffer: the single mapped-or-read allocation behind all views.
//
// The only unsafe code in this module lives here, in three shapes, each
// individually justified:
//   * the `mmap`/`munmap` FFI (read-only, MAP_PRIVATE, length checked
//     against file metadata; the mapping outlives every view because
//     views re-derive their slices from the owning `V2Container` on
//     each access and never store pointers);
//   * viewing an owned `Vec<u64>` (8-byte aligned by construction) or
//     the page-aligned mapping as `&[u8]`/`&[f32]` — alignment is
//     checked before every cast and the bytes are immutable for the
//     buffer's lifetime.
// ---------------------------------------------------------------------
#[allow(unsafe_code)]
mod buffer {
    use super::OpenPath;
    use std::path::Path;

    #[cfg(all(unix, target_pointer_width = "64"))]
    mod sys {
        use std::os::raw::{c_int, c_void};
        pub const PROT_READ: c_int = 1;
        pub const MAP_PRIVATE: c_int = 2;
        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    /// The single read-only allocation a [`super::V2Container`] serves
    /// views from.
    pub(super) struct Buffer {
        imp: Imp,
    }

    enum Imp {
        #[cfg(all(unix, target_pointer_width = "64"))]
        Mapped { ptr: *const u8, len: usize },
        /// `Vec<u64>` rather than `Vec<u8>` so the base is 8-byte
        /// aligned; `len` is the real byte length (the last word may be
        /// zero-padded).
        Owned { words: Vec<u64>, len: usize },
    }

    // The mapping is read-only for its whole lifetime and the owned
    // variant is never mutated after construction, so shared access
    // from many threads is sound.
    unsafe impl Send for Buffer {}
    unsafe impl Sync for Buffer {}

    impl Buffer {
        /// Map `path` read-only when possible, else read it whole into
        /// an aligned owned buffer.
        pub(super) fn open(path: &Path) -> std::io::Result<(Buffer, OpenPath)> {
            #[cfg(all(unix, target_pointer_width = "64"))]
            if std::env::var_os("LEAPME_NO_MMAP").is_none() {
                if let Some(buf) = Self::try_mmap(path)? {
                    return Ok((buf, OpenPath::Mmap));
                }
            }
            Ok((Self::read_whole(path)?, OpenPath::Read))
        }

        #[cfg(all(unix, target_pointer_width = "64"))]
        fn try_mmap(path: &Path) -> std::io::Result<Option<Buffer>> {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 || len > usize::MAX as u64 {
                return Ok(None); // empty files cannot be mapped
            }
            let len = len as usize;
            // SAFETY: read-only private mapping of `len` bytes of an
            // open fd; a MAP_FAILED (-1) return falls back to read().
            // The fd may be closed after mmap returns — the mapping
            // holds its own reference to the file.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return Ok(None);
            }
            Ok(Some(Buffer {
                imp: Imp::Mapped {
                    ptr: ptr as *const u8,
                    len,
                },
            }))
        }

        fn read_whole(path: &Path) -> std::io::Result<Buffer> {
            Ok(Self::from_vec(std::fs::read(path)?))
        }

        /// Build from in-memory bytes (tests, corruption drills).
        pub(super) fn from_vec(bytes: Vec<u8>) -> Buffer {
            let len = bytes.len();
            let mut words = vec![0u64; len.div_ceil(8)];
            // SAFETY: `words` owns at least `len` writable bytes and
            // the ranges cannot overlap (freshly allocated).
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_mut_ptr() as *mut u8, len);
            }
            Buffer {
                imp: Imp::Owned { words, len },
            }
        }

        /// The whole buffer as bytes.
        pub(super) fn bytes(&self) -> &[u8] {
            match &self.imp {
                #[cfg(all(unix, target_pointer_width = "64"))]
                // SAFETY: `ptr` maps exactly `len` readable bytes for
                // the lifetime of `self` (unmapped only in Drop).
                Imp::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
                // SAFETY: `words` owns ≥ `len` initialized bytes.
                Imp::Owned { words, len } => unsafe {
                    std::slice::from_raw_parts(words.as_ptr() as *const u8, *len)
                },
            }
        }
    }

    impl Drop for Buffer {
        fn drop(&mut self) {
            #[cfg(all(unix, target_pointer_width = "64"))]
            if let Imp::Mapped { ptr, len } = self.imp {
                // SAFETY: exactly the range mmap returned; no view can
                // outlive `self` (they borrow from the container).
                unsafe {
                    sys::munmap(ptr as *mut std::os::raw::c_void, len);
                }
            }
        }
    }

    /// Reinterpret little-endian `f32` bytes as a typed slice without
    /// copying. Returns `None` when the length or base alignment does
    /// not permit it, or on big-endian hosts (where the bytes are not
    /// native `f32`s and the caller must decode a copy).
    pub(super) fn f32_view(bytes: &[u8]) -> Option<&[f32]> {
        if !bytes.len().is_multiple_of(4) || !(bytes.as_ptr() as usize).is_multiple_of(4) {
            return None;
        }
        #[cfg(target_endian = "little")]
        {
            // SAFETY: alignment and length checked above; any bit
            // pattern is a valid f32; the borrow pins the buffer.
            Some(unsafe {
                std::slice::from_raw_parts(bytes.as_ptr() as *const f32, bytes.len() / 4)
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            None
        }
    }
}

use buffer::Buffer;

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Builder for a v2 container: accumulate named sections, then
/// [`V2Writer::write`] them atomically (temp + fsync + rename, same
/// protocol as v1).
#[derive(Debug)]
pub struct V2Writer {
    kind: u8,
    sections: Vec<(String, u8, Vec<u8>)>,
}

impl V2Writer {
    /// Start a container of `kind` (the v1 kind registry applies).
    pub fn new(kind: u8) -> Self {
        V2Writer {
            kind,
            sections: Vec::new(),
        }
    }

    /// Append an opaque byte section.
    pub fn bytes(&mut self, name: &str, payload: &[u8]) {
        self.sections
            .push((name.to_string(), SECTION_BYTES, payload.to_vec()));
    }

    /// Append an `f32` section (stored little-endian, bitwise).
    pub fn f32s(&mut self, name: &str, payload: &[f32]) {
        let mut bytes = Vec::with_capacity(payload.len() * 4);
        for &v in payload {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections.push((name.to_string(), SECTION_F32, bytes));
    }

    /// Serialize the container to bytes. Fails on empty, duplicate, or
    /// over-long section names — writer bugs, surfaced as typed errors
    /// rather than corrupt files.
    pub fn finish(self) -> Result<Vec<u8>, CheckpointError> {
        let count = self.sections.len();
        for (i, (name, _, _)) in self.sections.iter().enumerate() {
            if name.is_empty() || name.len() > NAME_LEN {
                return Err(CheckpointError::Malformed(format!(
                    "section name {name:?} must be 1..={NAME_LEN} bytes"
                )));
            }
            if name.as_bytes().contains(&0) {
                return Err(CheckpointError::Malformed(format!(
                    "section name {name:?} contains NUL"
                )));
            }
            if self.sections[..i].iter().any(|(n, _, _)| n == name) {
                return Err(CheckpointError::Malformed(format!(
                    "duplicate section name {name:?}"
                )));
            }
        }

        let table_start = HEADER_LEN;
        let data_start = table_start + count * ENTRY_LEN;
        // Section offsets: ascending, each aligned up to 64.
        let mut offsets = Vec::with_capacity(count);
        let mut cursor = align64(data_start as u64);
        for (_, _, payload) in &self.sections {
            offsets.push(cursor);
            cursor = align64(cursor + payload.len() as u64);
        }
        let total = self
            .sections
            .last()
            .map(|(_, _, p)| offsets[count - 1] + p.len() as u64)
            .unwrap_or(data_start as u64) as usize;

        let mut table = Vec::with_capacity(count * ENTRY_LEN);
        for (i, (name, dtype, payload)) in self.sections.iter().enumerate() {
            let mut entry = [0u8; ENTRY_LEN];
            entry[..name.len()].copy_from_slice(name.as_bytes());
            entry[NAME_LEN] = *dtype;
            entry[40..48].copy_from_slice(&offsets[i].to_le_bytes());
            entry[48..56].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            entry[56..64].copy_from_slice(&crc64(payload).to_le_bytes());
            table.extend_from_slice(&entry);
        }

        let mut out = vec![0u8; total];
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION_V2.to_le_bytes());
        out[12] = self.kind;
        out[13] = DTYPE_F32;
        out[14..18].copy_from_slice(&(count as u32).to_le_bytes());
        out[18..26].copy_from_slice(&crc64(&table).to_le_bytes());
        out[table_start..data_start].copy_from_slice(&table);
        for (i, (_, _, payload)) in self.sections.iter().enumerate() {
            let at = offsets[i] as usize;
            out[at..at + payload.len()].copy_from_slice(payload);
        }
        Ok(out)
    }

    /// Serialize and write atomically to `path`. Visits the
    /// `nn.checkpoint.write` fault site like the v1 writer, so chaos
    /// suites exercise torn/failed writes on both formats.
    pub fn write(self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.finish()?;
        if let Some(e) = crate::checkpoint::injected_write_fault(path, &bytes) {
            return Err(CheckpointError::Io(e));
        }
        leapme_data::io::atomic_write(path, &bytes)?;
        Ok(())
    }
}

fn align64(n: u64) -> u64 {
    n.div_ceil(64) * 64
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// One parsed section-table entry. The name stays a fixed inline array
/// (no per-section `String`) so opening a container performs a constant
/// number of allocations regardless of section count or payload size.
struct Section {
    name: [u8; NAME_LEN],
    name_len: u8,
    dtype: u8,
    offset: u64,
    len: u64,
    crc: u64,
}

impl Section {
    fn name(&self) -> &str {
        // Validated UTF-8 at parse time.
        std::str::from_utf8(&self.name[..self.name_len as usize]).expect("validated at parse")
    }
}

/// Read-only description of one section, for inspection tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo<'a> {
    /// Section name.
    pub name: &'a str,
    /// Section dtype ([`SECTION_F32`] or [`SECTION_BYTES`]).
    pub dtype: u8,
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Recorded CRC-64 of the payload.
    pub crc: u64,
}

/// An open v2 container: one mapped (or read) buffer plus the parsed
/// section table. Payload CRCs are verified lazily on first access and
/// memoized; [`V2Container::verify_all`] forces the full sweep.
pub struct V2Container {
    buf: Buffer,
    kind: u8,
    open_path: OpenPath,
    table: Vec<Section>,
    verified: Vec<AtomicBool>,
}

impl std::fmt::Debug for V2Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("V2Container")
            .field("kind", &self.kind)
            .field("open_path", &self.open_path)
            .field("sections", &self.table.len())
            .field("bytes", &self.buf.bytes().len())
            .finish()
    }
}

impl V2Container {
    /// Open `path`, validating the header and section table eagerly
    /// (payload CRCs stay lazy). Dispatch between mmap and read per the
    /// module docs.
    ///
    /// Fault builds visit the `nn.checkpoint.read` site: a fired fault
    /// corrupts an owned copy of the bytes and the open verifies every
    /// section eagerly on that copy, so short reads, bit flips, and io
    /// errors surface as typed errors at open on both formats — the
    /// mmap itself is read-only and cannot be corrupted in place.
    pub fn open(path: &Path, expected_kind: u8) -> Result<Self, CheckpointError> {
        let (buf, open_path) = Buffer::open(path)?;
        #[cfg(feature = "faults")]
        {
            let mut copy = buf.bytes().to_vec();
            crate::checkpoint::injected_read_fault(&mut copy)?;
            if copy != buf.bytes() {
                let c = Self::from_buffer(Buffer::from_vec(copy), OpenPath::Read, expected_kind)?;
                c.verify_all()?;
                return Ok(c);
            }
        }
        Self::from_buffer(buf, open_path, expected_kind)
    }

    /// Parse in-memory container bytes (tests, corruption drills).
    pub fn from_bytes(bytes: Vec<u8>, expected_kind: u8) -> Result<Self, CheckpointError> {
        Self::from_buffer(Buffer::from_vec(bytes), OpenPath::Read, expected_kind)
    }

    fn from_buffer(
        buf: Buffer,
        open_path: OpenPath,
        expected_kind: u8,
    ) -> Result<Self, CheckpointError> {
        let bytes = buf.bytes();
        if bytes.len() < HEADER_LEN {
            if !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                return Err(CheckpointError::InvalidMagic);
            }
            return Err(CheckpointError::Truncated {
                expected: HEADER_LEN,
                actual: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::InvalidMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION_V2 {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION_V2,
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
        let count = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes")) as usize;
        let table_crc = u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes"));
        let data_start = HEADER_LEN
            .checked_add(count.checked_mul(ENTRY_LEN).ok_or_else(|| {
                CheckpointError::Malformed("section count overflows".into())
            })?)
            .ok_or_else(|| CheckpointError::Malformed("section table overflows".into()))?;
        if bytes.len() < data_start {
            return Err(CheckpointError::Truncated {
                expected: data_start,
                actual: bytes.len(),
            });
        }
        let table_bytes = &bytes[HEADER_LEN..data_start];
        let actual_crc = crc64(table_bytes);
        if actual_crc != table_crc {
            return Err(CheckpointError::ChecksumMismatch {
                expected: table_crc,
                actual: actual_crc,
            });
        }

        let mut table = Vec::with_capacity(count);
        let mut prev_end = data_start as u64;
        for (i, entry) in table_bytes.chunks_exact(ENTRY_LEN).enumerate() {
            let name_len = entry[..NAME_LEN]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(NAME_LEN);
            if name_len == 0 {
                return Err(CheckpointError::Malformed(format!(
                    "section {i} has an empty name"
                )));
            }
            let name_str = std::str::from_utf8(&entry[..name_len]).map_err(|_| {
                CheckpointError::Malformed(format!("section {i} name is not UTF-8"))
            })?;
            let dtype = entry[NAME_LEN];
            if dtype != SECTION_F32 && dtype != SECTION_BYTES {
                return Err(CheckpointError::UnsupportedDtype(dtype));
            }
            let offset = u64::from_le_bytes(entry[40..48].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[48..56].try_into().expect("8 bytes"));
            let crc = u64::from_le_bytes(entry[56..64].try_into().expect("8 bytes"));
            if offset % 64 != 0 {
                return Err(CheckpointError::Malformed(format!(
                    "section {name_str:?} offset {offset} is not 64-byte aligned"
                )));
            }
            if offset < prev_end {
                return Err(CheckpointError::Malformed(format!(
                    "section {name_str:?} at offset {offset} overlaps earlier data"
                )));
            }
            let end = offset.checked_add(len).ok_or_else(|| {
                CheckpointError::Malformed(format!("section {name_str:?} extent overflows"))
            })?;
            if end > bytes.len() as u64 {
                return Err(CheckpointError::Truncated {
                    expected: end as usize,
                    actual: bytes.len(),
                });
            }
            if dtype == SECTION_F32 && len % 4 != 0 {
                return Err(CheckpointError::Malformed(format!(
                    "f32 section {name_str:?} byte length {len} is not a multiple of 4"
                )));
            }
            let mut name = [0u8; NAME_LEN];
            name[..name_len].copy_from_slice(&entry[..name_len]);
            if table.iter().any(|s: &Section| s.name() == name_str) {
                return Err(CheckpointError::Malformed(format!(
                    "duplicate section name {name_str:?}"
                )));
            }
            prev_end = end;
            table.push(Section {
                name,
                name_len: name_len as u8,
                dtype,
                offset,
                len,
                crc,
            });
        }

        let verified = (0..table.len()).map(|_| AtomicBool::new(false)).collect();
        Ok(V2Container {
            buf,
            kind,
            open_path,
            table,
            verified,
        })
    }

    /// Container kind byte.
    pub fn kind(&self) -> u8 {
        self.kind
    }

    /// How the buffer was obtained.
    pub fn open_path(&self) -> OpenPath {
        self.open_path
    }

    /// Total bytes mapped or read for this container.
    pub fn total_bytes(&self) -> u64 {
        self.buf.bytes().len() as u64
    }

    /// The section table, in file order.
    pub fn sections(&self) -> impl Iterator<Item = SectionInfo<'_>> {
        self.table.iter().map(|s| SectionInfo {
            name: s.name(),
            dtype: s.dtype,
            offset: s.offset,
            len: s.len,
            crc: s.crc,
        })
    }

    fn find(&self, name: &str) -> Result<usize, CheckpointError> {
        self.table
            .iter()
            .position(|s| s.name() == name)
            .ok_or_else(|| CheckpointError::Malformed(format!("missing section {name:?}")))
    }

    fn raw(&self, idx: usize) -> &[u8] {
        let s = &self.table[idx];
        &self.buf.bytes()[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// Verify section `idx`'s payload CRC once, memoized.
    fn ensure_verified(&self, idx: usize) -> Result<(), CheckpointError> {
        if self.verified[idx].load(Ordering::Relaxed) {
            return Ok(());
        }
        let actual = crc64(self.raw(idx));
        if actual != self.table[idx].crc {
            return Err(CheckpointError::ChecksumMismatch {
                expected: self.table[idx].crc,
                actual,
            });
        }
        self.verified[idx].store(true, Ordering::Relaxed);
        Ok(())
    }

    /// A section's payload bytes, CRC-verified (lazily, memoized).
    pub fn section_bytes(&self, name: &str) -> Result<&[u8], CheckpointError> {
        let idx = self.find(name)?;
        self.ensure_verified(idx)?;
        Ok(self.raw(idx))
    }

    /// An `f32` section decoded into an owned `Vec` — the portable path
    /// for small sections (biases, scaler rows) and big-endian hosts.
    pub fn section_f32_vec(&self, name: &str) -> Result<Vec<f32>, CheckpointError> {
        let idx = self.find(name)?;
        if self.table[idx].dtype != SECTION_F32 {
            return Err(CheckpointError::Malformed(format!(
                "section {name:?} is not an f32 section"
            )));
        }
        self.ensure_verified(idx)?;
        let bytes = self.raw(idx);
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// A zero-copy typed view of an `f32` section, CRC-verified. The
    /// keep-alive for the mapping is the container itself — use
    /// [`V2Container::f32_section`] for an owning handle.
    pub fn section_f32s(&self, name: &str) -> Result<&[f32], CheckpointError> {
        let idx = self.find(name)?;
        if self.table[idx].dtype != SECTION_F32 {
            return Err(CheckpointError::Malformed(format!(
                "section {name:?} is not an f32 section"
            )));
        }
        self.ensure_verified(idx)?;
        buffer::f32_view(self.raw(idx)).ok_or_else(|| {
            CheckpointError::Malformed(format!(
                "section {name:?} cannot be viewed zero-copy on this host"
            ))
        })
    }

    /// An owning `AsRef<[f32]>` handle over a section: keeps the
    /// container (and its mapping) alive, re-derives the typed view on
    /// each access. Zero-copy on little-endian hosts; decodes one owned
    /// copy on big-endian hosts. CRC is verified here, once.
    pub fn f32_section(self: &Arc<Self>, name: &str) -> Result<F32Section, CheckpointError> {
        let idx = self.find(name)?;
        if self.table[idx].dtype != SECTION_F32 {
            return Err(CheckpointError::Malformed(format!(
                "section {name:?} is not an f32 section"
            )));
        }
        self.ensure_verified(idx)?;
        if buffer::f32_view(self.raw(idx)).is_some() {
            Ok(F32Section {
                inner: F32Inner::View {
                    container: Arc::clone(self),
                    index: idx,
                },
            })
        } else {
            Ok(F32Section {
                inner: F32Inner::Owned(self.section_f32_vec(name)?),
            })
        }
    }

    /// Like [`V2Container::f32_section`], but with the payload checksum
    /// deferred: the handle comes back in O(1) no matter how large the
    /// section is, and integrity becomes the caller's explicit
    /// responsibility via [`V2Container::verify_all`] (the registry
    /// inspect and upgrade paths run exactly that sweep). The zero-copy
    /// feature-cache open uses this so faulting a multi-megabyte slab
    /// in costs no checksum pass; offsets and extents were still fully
    /// validated against the CRC-checked section table at open, so the
    /// view itself can never read out of bounds.
    ///
    /// On hosts where the zero-copy view is unavailable (alignment,
    /// endianness) the fallback decode touches every payload byte
    /// anyway, so it verifies eagerly like [`V2Container::f32_section`].
    pub fn f32_section_lazy(self: &Arc<Self>, name: &str) -> Result<F32Section, CheckpointError> {
        let idx = self.find(name)?;
        if self.table[idx].dtype != SECTION_F32 {
            return Err(CheckpointError::Malformed(format!(
                "section {name:?} is not an f32 section"
            )));
        }
        if buffer::f32_view(self.raw(idx)).is_some() {
            Ok(F32Section {
                inner: F32Inner::View {
                    container: Arc::clone(self),
                    index: idx,
                },
            })
        } else {
            self.ensure_verified(idx)?;
            Ok(F32Section {
                inner: F32Inner::Owned(self.section_f32_vec(name)?),
            })
        }
    }

    /// Verify every section's payload CRC (drills, inspection,
    /// `registry upgrade`). Memoizes like the lazy path.
    pub fn verify_all(&self) -> Result<(), CheckpointError> {
        for idx in 0..self.table.len() {
            self.ensure_verified(idx)?;
        }
        Ok(())
    }
}

/// Owning handle over one `f32` section (see
/// [`V2Container::f32_section`]). Implements `AsRef<[f32]>`, so it can
/// back a `leapme_nn::matrix::Matrix` via `Matrix::from_shared` or a
/// feature slab, pinning the mapping for as long as any user holds it.
/// A clone shares the mapping.
#[derive(Clone)]
pub struct F32Section {
    inner: F32Inner,
}

#[derive(Clone)]
enum F32Inner {
    View {
        container: Arc<V2Container>,
        index: usize,
    },
    Owned(Vec<f32>),
}

impl AsRef<[f32]> for F32Section {
    fn as_ref(&self) -> &[f32] {
        match &self.inner {
            F32Inner::View { container, index } => {
                buffer::f32_view(container.raw(*index)).expect("validated at handle creation")
            }
            F32Inner::Owned(v) => v,
        }
    }
}

impl std::fmt::Debug for F32Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F32Section(len={})", self.as_ref().len())
    }
}

// ---------------------------------------------------------------------
// Version dispatch.
// ---------------------------------------------------------------------

/// A container opened by [`open_any`]: either a fully parsed v1 payload
/// (legacy path) or an open v2 container.
#[derive(Debug)]
pub enum Opened {
    /// Legacy v1: the checksum-verified payload bytes, owned.
    V1(Vec<u8>),
    /// v2: the open container, ready for zero-copy views.
    V2(Arc<V2Container>),
}

/// Open a container of either format version, dispatching on the
/// version field: v1 files take the legacy parse path (including its
/// fault-injection hooks), v2 files the zero-copy path.
pub fn open_any(path: &Path, expected_kind: u8) -> Result<Opened, CheckpointError> {
    use std::io::Read as _;
    let mut head = [0u8; 12];
    let mut file = std::fs::File::open(path)?;
    let mut filled = 0;
    while filled < head.len() {
        match file.read(&mut head[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    drop(file);
    if filled < head.len() {
        if !MAGIC.starts_with(&head[..filled.min(8)]) {
            return Err(CheckpointError::InvalidMagic);
        }
        return Err(CheckpointError::Truncated {
            expected: head.len(),
            actual: filled,
        });
    }
    if head[..8] != MAGIC {
        return Err(CheckpointError::InvalidMagic);
    }
    match u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")) {
        1 => Ok(Opened::V1(crate::checkpoint::read_container(
            path,
            expected_kind,
        )?)),
        2 => Ok(Opened::V2(Arc::new(V2Container::open(
            path,
            expected_kind,
        )?))),
        v => Err(CheckpointError::UnsupportedVersion {
            found: v,
            supported: FORMAT_VERSION_V2,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{write_container, KIND_MODEL, KIND_PIPELINE};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "leapme-container2-{}-{}",
            std::process::id(),
            name
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_bytes() -> Vec<u8> {
        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("w0", &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        w.bytes("meta", b"hello meta");
        w.f32s("w1", &[0.0; 33]);
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_sections_bitwise() {
        let bytes = sample_bytes();
        let c = V2Container::from_bytes(bytes, KIND_MODEL).unwrap();
        assert_eq!(
            c.section_f32s("w0").unwrap(),
            &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]
        );
        assert_eq!(c.section_bytes("meta").unwrap(), b"hello meta");
        assert_eq!(c.section_f32s("w1").unwrap(), &[0.0; 33]);
        assert_eq!(c.section_f32_vec("w0").unwrap(), vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        c.verify_all().unwrap();
        assert_eq!(c.sections().count(), 3);
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let bytes = sample_bytes();
        let c = V2Container::from_bytes(bytes, KIND_MODEL).unwrap();
        for s in c.sections() {
            assert_eq!(s.offset % 64, 0, "section {} misaligned", s.name);
        }
    }

    #[test]
    fn open_from_disk_and_handle_outlives_container_binding() {
        let path = tmp("disk.l2c");
        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("w0", &[4.0, 5.0, 6.0]);
        w.write(&path).unwrap();
        let c = Arc::new(V2Container::open(&path, KIND_MODEL).unwrap());
        let handle = c.f32_section("w0").unwrap();
        drop(c); // handle keeps the mapping alive
        assert_eq!(handle.as_ref(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn no_mmap_env_forces_read_path() {
        let path = tmp("nommap.l2c");
        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("w0", &[1.0]);
        w.write(&path).unwrap();
        // Serially flip the env var; tests in this module that open
        // from disk tolerate either path.
        std::env::set_var("LEAPME_NO_MMAP", "1");
        let c = V2Container::open(&path, KIND_MODEL).unwrap();
        std::env::remove_var("LEAPME_NO_MMAP");
        assert_eq!(c.open_path(), OpenPath::Read);
        assert_eq!(c.section_f32s("w0").unwrap(), &[1.0]);
    }

    #[test]
    fn wrong_kind_and_missing_section_are_typed() {
        let bytes = sample_bytes();
        match V2Container::from_bytes(bytes.clone(), KIND_PIPELINE) {
            Err(CheckpointError::WrongKind { expected, found }) => {
                assert_eq!((expected, found), (KIND_PIPELINE, KIND_MODEL));
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
        let c = V2Container::from_bytes(bytes, KIND_MODEL).unwrap();
        assert!(matches!(
            c.section_bytes("nope"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let mut bytes = sample_bytes();
        // Flip a bit inside the first section's payload (offset 256 is
        // past header + 3 entries, aligned start of section data).
        let c = V2Container::from_bytes(bytes.clone(), KIND_MODEL).unwrap();
        let off = c.sections().next().unwrap().offset as usize;
        drop(c);
        bytes[off] ^= 0x01;
        let c = V2Container::from_bytes(bytes, KIND_MODEL).unwrap(); // open stays lazy
        assert!(matches!(
            c.section_f32s("w0"),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        assert!(c.verify_all().is_err());
    }

    #[test]
    fn lazy_f32_handle_skips_the_checksum_but_verify_all_still_objects() {
        let mut bytes = sample_bytes();
        let c = V2Container::from_bytes(bytes.clone(), KIND_MODEL).unwrap();
        let off = c.sections().next().unwrap().offset as usize;
        drop(c);
        bytes[off] ^= 0x01;
        let c = Arc::new(V2Container::from_bytes(bytes, KIND_MODEL).unwrap());
        // The deferred handle opens (and reads) without a sweep — the
        // deal is that integrity moves to the explicit verify — but the
        // sweep itself must still catch the flip.
        let handle = c.f32_section_lazy("w0").unwrap();
        assert_eq!(handle.as_ref().len(), 4);
        assert!(matches!(
            c.verify_all(),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn table_bit_flip_fails_at_open() {
        let mut bytes = sample_bytes();
        bytes[HEADER_LEN + 3] ^= 0x40; // inside the first table entry
        assert!(matches!(
            V2Container::from_bytes(bytes, KIND_MODEL),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncations_are_typed_errors() {
        let bytes = sample_bytes();
        for cut in [0, 7, 11, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let err = V2Container::from_bytes(bytes[..cut].to_vec(), KIND_MODEL)
                .err()
                .unwrap_or_else(|| panic!("cut at {cut} must fail"));
            match err {
                CheckpointError::InvalidMagic
                | CheckpointError::Truncated { .. }
                | CheckpointError::ChecksumMismatch { .. } => {}
                other => panic!("cut at {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn open_any_dispatches_versions() {
        let v1 = tmp("any.v1");
        write_container(&v1, KIND_MODEL, b"payload").unwrap();
        match open_any(&v1, KIND_MODEL).unwrap() {
            Opened::V1(payload) => assert_eq!(payload, b"payload"),
            other => panic!("expected V1, got {other:?}"),
        }

        let v2 = tmp("any.v2");
        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("w0", &[9.0]);
        w.write(&v2).unwrap();
        match open_any(&v2, KIND_MODEL).unwrap() {
            Opened::V2(c) => assert_eq!(c.section_f32s("w0").unwrap(), &[9.0]),
            other => panic!("expected V2, got {other:?}"),
        }

        let junk = tmp("any.junk");
        std::fs::write(&junk, b"not a container at all").unwrap();
        assert!(matches!(
            open_any(&junk, KIND_MODEL),
            Err(CheckpointError::InvalidMagic)
        ));

        let v9 = tmp("any.v9");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 52]);
        std::fs::write(&v9, &bytes).unwrap();
        assert!(matches!(
            open_any(&v9, KIND_MODEL),
            Err(CheckpointError::UnsupportedVersion { found: 9, .. })
        ));
    }

    #[test]
    fn writer_rejects_bad_section_names() {
        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("", &[1.0]);
        assert!(w.finish().is_err());

        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s("dup", &[1.0]);
        w.f32s("dup", &[2.0]);
        assert!(w.finish().is_err());

        let mut w = V2Writer::new(KIND_MODEL);
        w.f32s(&"x".repeat(NAME_LEN + 1), &[1.0]);
        assert!(w.finish().is_err());
    }

    #[test]
    fn empty_container_round_trips() {
        let bytes = V2Writer::new(KIND_MODEL).finish().unwrap();
        let c = V2Container::from_bytes(bytes, KIND_MODEL).unwrap();
        assert_eq!(c.sections().count(), 0);
        c.verify_all().unwrap();
    }

    #[test]
    fn misaligned_offset_is_rejected() {
        let mut bytes = sample_bytes();
        // Nudge the first section's recorded offset off alignment and
        // re-seal the table CRC so only the alignment check can fire.
        let entry = HEADER_LEN;
        let mut off = u64::from_le_bytes(bytes[entry + 40..entry + 48].try_into().unwrap());
        off += 4;
        bytes[entry + 40..entry + 48].copy_from_slice(&off.to_le_bytes());
        let count =
            u32::from_le_bytes(bytes[14..18].try_into().unwrap()) as usize;
        let table_crc = crc64(&bytes[HEADER_LEN..HEADER_LEN + count * ENTRY_LEN]);
        bytes[18..26].copy_from_slice(&table_crc.to_le_bytes());
        match V2Container::from_bytes(bytes, KIND_MODEL) {
            Err(CheckpointError::Malformed(m)) => assert!(m.contains("aligned"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
