//! Corruption matrix for the LEAPMECP v2 section container
//! (DESIGN.md §15): property-based drills proving that *no* byte-level
//! damage — bit flips anywhere in the file, truncation at any length,
//! a misaligned section offset smuggled past a recomputed table CRC —
//! ever panics or silently yields wrong data. Every outcome is either
//! a typed [`CheckpointError`] or a verified-identical read.
//!
//! The v1 compatibility half: arbitrary payloads round-trip through
//! the legacy writer and [`open_any`], and every single-bit flip in a
//! v1 file is caught (v1 has no unchecked bytes at all).

use leapme::nn::checkpoint::{self, crc64, CheckpointError, KIND_PIPELINE};
use leapme::nn::container2::{open_any, Opened, V2Container, V2Writer};
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("leapme_corruption_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A representative container: a bytes section, two f32 tensors of
/// different sizes, and an empty section (zero-length extents are
/// legal and must stay harmless under corruption).
fn reference_bytes() -> Vec<u8> {
    let mut w = V2Writer::new(KIND_PIPELINE);
    w.bytes("meta", &[7u8; 13]);
    w.f32s("w0", &(0..300).map(|i| i as f32 * 0.25).collect::<Vec<_>>());
    w.f32s("b0", &[1.0, -2.0, 3.5]);
    w.bytes("empty", &[]);
    w.finish().unwrap()
}

/// Read every section of `c`, comparing against the pristine copy.
/// Returns `Err` on the first typed failure.
fn read_all_and_compare(
    c: &V2Container,
    pristine: &V2Container,
) -> Result<bool, CheckpointError> {
    c.verify_all()?;
    let mut identical = true;
    for name in ["meta", "empty"] {
        identical &= c.section_bytes(name)? == pristine.section_bytes(name).unwrap();
    }
    for name in ["w0", "b0"] {
        identical &= c.section_f32s(name)? == pristine.section_f32s(name).unwrap();
    }
    Ok(identical)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip any single bit anywhere in a v2 file: the open + full read
    /// either fails with a typed error or — when the flip lands in a
    /// reserved header byte no contract covers — still reads every
    /// section byte-identical. Silent wrong data is the one outcome
    /// that must never happen.
    #[test]
    fn v2_single_bit_flip_is_typed_or_harmless(
        pos_seed in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let bytes = reference_bytes();
        let pristine = V2Container::from_bytes(bytes.clone(), KIND_PIPELINE).unwrap();
        let pos = pos_seed % bytes.len();
        let mut corrupt = bytes;
        corrupt[pos] ^= 1 << bit;
        match V2Container::from_bytes(corrupt, KIND_PIPELINE) {
            Err(_) => {} // typed at open: header, table CRC, extents
            Ok(c) => match read_all_and_compare(&c, &pristine) {
                Err(_) => {} // typed at section access: payload CRC
                Ok(identical) => prop_assert!(
                    identical,
                    "bit flip at byte {pos} bit {bit} read back silently wrong data"
                ),
            },
        }
    }

    /// Truncate a v2 file at every possible length: opens must fail
    /// typed, or succeed with all sections intact (possible only when
    /// the cut removes trailing zero padding past the last payload).
    #[test]
    fn v2_truncation_is_typed_or_harmless(cut_seed in 0usize..usize::MAX) {
        let bytes = reference_bytes();
        let pristine = V2Container::from_bytes(bytes.clone(), KIND_PIPELINE).unwrap();
        let cut = cut_seed % bytes.len(); // strictly shorter than the file
        let corrupt = bytes[..cut].to_vec();
        match V2Container::from_bytes(corrupt, KIND_PIPELINE) {
            Err(_) => {}
            Ok(c) => match read_all_and_compare(&c, &pristine) {
                Err(_) => {}
                Ok(identical) => prop_assert!(
                    identical,
                    "truncation to {cut} bytes read back silently wrong data"
                ),
            },
        }
    }

    /// Smuggle a misaligned offset past the table CRC: nudge one
    /// entry's offset by 1–63 bytes *and recompute the table CRC* so
    /// only the alignment check can object. It must.
    #[test]
    fn v2_misaligned_offset_is_rejected_even_with_valid_table_crc(
        entry_seed in 0usize..usize::MAX,
        delta in 1u64..64,
    ) {
        let mut bytes = reference_bytes();
        // Header: count at 14..18, table CRC at 18..26, table at 64.
        let count =
            u32::from_le_bytes(bytes[14..18].try_into().unwrap()) as usize;
        prop_assert!(count > 0, "reference container must have sections");
        let entry = 64 + (entry_seed % count) * 64;
        let off_at = entry + 40;
        let offset = u64::from_le_bytes(bytes[off_at..off_at + 8].try_into().unwrap());
        bytes[off_at..off_at + 8].copy_from_slice(&(offset + delta).to_le_bytes());
        let table_crc = crc64(&bytes[64..64 + count * 64]);
        bytes[18..26].copy_from_slice(&table_crc.to_le_bytes());
        prop_assert!(
            V2Container::from_bytes(bytes, KIND_PIPELINE).is_err(),
            "a misaligned section offset must never open"
        );
    }

    /// v1 compatibility round-trip: arbitrary payload bytes written by
    /// the legacy writer come back bit-identical through [`open_any`].
    #[test]
    fn v1_round_trip_through_open_any(seed in 0u64..u64::MAX, len in 0usize..512) {
        let payload = pseudo_bytes(seed, len);
        let path = tmp("v1_roundtrip.lmp");
        checkpoint::write_container(&path, KIND_PIPELINE, &payload).unwrap();
        match open_any(&path, KIND_PIPELINE).unwrap() {
            Opened::V1(back) => prop_assert!(
                back == payload,
                "v1 payload of {len} bytes did not round-trip bitwise"
            ),
            Opened::V2(_) => prop_assert!(false, "v1 file dispatched to the v2 path"),
        }
    }

    /// Every single-bit flip in a v1 container is caught: the legacy
    /// format has no reserved bytes, so magic, version, kind, dtype,
    /// length, payload CRC, or trailer must all object.
    #[test]
    fn v1_single_bit_flip_is_always_typed(
        pos_seed in 0usize..usize::MAX,
        bit in 0u8..8,
        seed in 0u64..u64::MAX,
        len in 1usize..128,
    ) {
        let payload = pseudo_bytes(seed, len);
        let path = tmp("v1_flip.lmp");
        checkpoint::write_container(&path, KIND_PIPELINE, &payload).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            checkpoint::parse_container(&bytes, KIND_PIPELINE).is_err(),
            "v1 bit flip at byte {} bit {} was not detected",
            pos,
            bit
        );
    }
}

/// Deterministic pseudo-random bytes (xorshift64*) so the shimmed
/// proptest harness — which has no `any::<u8>()` strategy — still
/// exercises arbitrary payload content per case.
fn pseudo_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}
