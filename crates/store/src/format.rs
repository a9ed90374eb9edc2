//! The on-disk artifact layout: relative-offset sections behind a
//! checksummed header, in the spirit of rkyv's archived collections but
//! hand-rolled against the offline compat constraints.
//!
//! ```text
//! offset  field
//! ------  -----------------------------------------------------------
//!  0      magic            [u8; 8] = b"ARCHRELS"
//!  8      format_version   u32 (= 2)
//! 12      kind             u32 (1 = solve plan, 2 = program bundle)
//! 16      key              u64 (plan: structure fingerprint;
//!                               bundle: assembly digest)
//! 24      build_key        u64 (format version ⊕ pointer width ⊕
//!                               endianness — rejects cross-build reads)
//! 32      file_len         u64 (total bytes; pins truncation)
//! 40      checksum         u64 (FNV-1a 64 of the whole file with this
//!                               field zeroed)
//! 48      meta             [u64; 6] (kind-specific scalars)
//! 96      section table    n × { byte_off u64, item_len u64 }
//!  …      payload sections, each 8-byte aligned, in table order
//! ```
//!
//! All integers are little-endian. A *plan* archive has six meta scalars
//! `[plan_kind, n_states, from_pos, slot_count, nt, n_terms]` and seven
//! `u32` sections, the back-substitution tape: `t_idx, pos, r_slot,
//! self_slot, term_off, term_slot, term_pos`. `plan_kind` is always 0 (the
//! tape). A *bundle* archive has meta `[count, 0…]` and one `u64` section
//! of plan fingerprints.
//!
//! Validation order on open is deliberate: magic and version before the
//! checksum (so a wrong-version file reads as [`StoreError::BadVersion`],
//! not a checksum failure), the checksum before any section framing (so a
//! bit flip anywhere reads as [`StoreError::ChecksumMismatch`] rather than
//! whatever framing damage it caused), and the plan-level semantic
//! validation ([`archrel_markov::SolvePlan::from_parts`]) last.

use std::sync::Arc;

use archrel_markov::{PlanParts, Section, SolvePlan};

use crate::error::StoreError;
use crate::mapped::{Backing, MappedSection};

/// Version of the archive layout; bumped on any incompatible change.
pub const FORMAT_VERSION: u32 = 2;

pub(crate) const MAGIC: [u8; 8] = *b"ARCHRELS";
pub(crate) const KIND_PLAN: u32 = 1;
pub(crate) const KIND_BUNDLE: u32 = 2;

const CHECKSUM_OFF: usize = 40;
const HEADER_LEN: usize = 48;
const META_LEN: usize = 6;
const TABLE_OFF: usize = HEADER_LEN + META_LEN * 8;
const PLAN_SECTIONS: usize = 7;
const BUNDLE_SECTIONS: usize = 1;

/// The only plan kind: a back-substitution tape.
const PLAN_TAPE: u64 = 0;

/// FNV-1a 64-bit hash — the archive checksum and the assembly digest
/// primitive. Exposed so corruption tests can craft archives with valid
/// checksums but hostile payloads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The archive checksum: a word-wise, 4-lane FNV-1a-64 variant over the
/// file with the checksum field itself zeroed.
///
/// Each 8-byte little-endian word feeds one of four independent FNV
/// chains (`h = (h ^ word) * prime`), round-robin; a zero-padded tail
/// word and the file length close the digest. Splitting the serial
/// multiply chain across four lanes overlaps the multiplies, which is
/// what keeps cold-start validation of a multi-hundred-kilobyte archive
/// in the microsecond range — load time is the product this store sells.
/// Corruption detection is unchanged in kind: any flipped or truncated
/// word perturbs its lane, and the final mix binds all lanes plus the
/// length. The checksum offset (40) and header length (48) are both
/// word-aligned, so zeroing the checksum field never straddles a word.
pub fn archive_checksum(file: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const LANES: usize = 8;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = lane.rotate_left(8 * i as u32);
    }
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));

    // Header words first (6 of them, word 5 — the checksum field itself —
    // hashed as zero so the digest is independent of its own field); any
    // shorter prefix is digested byte-padded like a tail.
    if file.len() >= HEADER_LEN {
        for (i, chunk) in file[..CHECKSUM_OFF].chunks_exact(8).enumerate() {
            lanes[i] = (lanes[i] ^ word(chunk)).wrapping_mul(PRIME);
        }
        lanes[CHECKSUM_OFF / 8] = lanes[CHECKSUM_OFF / 8].wrapping_mul(PRIME);

        // Payload stream, 64 bytes per round, one word per lane: the
        // eight multiply chains overlap, which is what keeps validating a
        // multi-hundred-kilobyte archive in the microsecond range — load
        // time is the product this store sells. Detection is unchanged in
        // kind: every flipped or truncated word perturbs its lane, and
        // the final mix binds all lanes plus the file length.
        let mut rounds = file[HEADER_LEN..].chunks_exact(8 * LANES);
        for round in &mut rounds {
            for (lane, chunk) in lanes.iter_mut().zip(round.chunks_exact(8)) {
                *lane = (*lane ^ word(chunk)).wrapping_mul(PRIME);
            }
        }
        let tail = rounds.remainder();
        let mut words = tail.chunks_exact(8);
        for (i, chunk) in (&mut words).enumerate() {
            lanes[i] = (lanes[i] ^ word(chunk)).wrapping_mul(PRIME);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut padded = [0u8; 8];
            padded[..rest.len()].copy_from_slice(rest);
            let i = tail.len() / 8;
            lanes[i] = (lanes[i] ^ u64::from_le_bytes(padded)).wrapping_mul(PRIME);
        }
    } else {
        for (i, b) in file.iter().enumerate() {
            let lane = &mut lanes[i & (LANES - 1)];
            *lane = (*lane ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    }

    let mut h = file.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    h
}

/// Build compatibility key: same-format archives are only shared between
/// builds with identical layout-relevant properties.
pub(crate) fn build_key() -> u64 {
    fnv1a64(&[
        FORMAT_VERSION as u8,
        std::mem::size_of::<usize>() as u8,
        cfg!(target_endian = "little") as u8,
    ])
}

/// One payload section staged for writing.
enum Payload<'a> {
    U32(&'a [u32]),
    U64(&'a [u64]),
}

impl Payload<'_> {
    fn item_len(&self) -> usize {
        match self {
            Payload::U32(s) => s.len(),
            Payload::U64(s) => s.len(),
        }
    }

    fn byte_len(&self) -> usize {
        match self {
            Payload::U32(s) => s.len() * 4,
            Payload::U64(s) => s.len() * 8,
        }
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Payload::U32(s) => {
                for v in *s {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Payload::U64(s) => {
                for v in *s {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
}

fn assemble(kind: u32, key: u64, meta: [u64; META_LEN], payloads: &[Payload<'_>]) -> Vec<u8> {
    // Lay out the sections first: each starts 8-aligned after the table.
    let mut offsets = Vec::with_capacity(payloads.len());
    let mut off = TABLE_OFF + payloads.len() * 16;
    for p in payloads {
        offsets.push(off as u64);
        off += p.byte_len().next_multiple_of(8);
    }
    let file_len = off;

    let mut out = Vec::with_capacity(file_len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&build_key().to_le_bytes());
    out.extend_from_slice(&(file_len as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
    for m in meta {
        out.extend_from_slice(&m.to_le_bytes());
    }
    for (p, o) in payloads.iter().zip(&offsets) {
        out.extend_from_slice(&o.to_le_bytes());
        out.extend_from_slice(&(p.item_len() as u64).to_le_bytes());
    }
    for p in payloads {
        p.write_to(&mut out);
        while out.len() % 8 != 0 {
            out.push(0);
        }
    }
    debug_assert_eq!(out.len(), file_len);
    let checksum = archive_checksum(&out);
    out[CHECKSUM_OFF..CHECKSUM_OFF + 8].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Serializes a compiled plan into archive bytes.
pub fn encode_plan(plan: &SolvePlan) -> Vec<u8> {
    let parts = plan.to_parts();
    assemble(
        KIND_PLAN,
        parts.fingerprint,
        [
            PLAN_TAPE,
            parts.n_states as u64,
            parts.from_pos as u64,
            parts.slot_count as u64,
            parts.t_idx.len() as u64,
            parts.term_slot.len() as u64,
        ],
        &[
            Payload::U32(parts.t_idx.as_slice()),
            Payload::U32(parts.pos.as_slice()),
            Payload::U32(parts.r_slot.as_slice()),
            Payload::U32(parts.self_slot.as_slice()),
            Payload::U32(parts.term_off.as_slice()),
            Payload::U32(parts.term_slot.as_slice()),
            Payload::U32(parts.term_pos.as_slice()),
        ],
    )
}

/// Serializes a program bundle (the set of plan fingerprints a compiled
/// assembly program pins) into archive bytes.
pub fn encode_bundle(digest: u64, fingerprints: &[u64]) -> Vec<u8> {
    assemble(
        KIND_BUNDLE,
        digest,
        [fingerprints.len() as u64, 0, 0, 0, 0, 0],
        &[Payload::U64(fingerprints)],
    )
}

/// A validated archive header plus its section table, over stable bytes.
struct Archive {
    backing: Backing,
    key: u64,
    meta: [u64; META_LEN],
    /// `(byte_off, item_len)` per section, framing not yet validated.
    sections: Vec<(u64, u64)>,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte window"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte window"))
}

fn open_archive(
    backing: Backing,
    expected_kind: u32,
    expected_key: u64,
) -> Result<Archive, StoreError> {
    let bytes: &[u8] = (*backing).as_ref();
    if bytes.len() < TABLE_OFF {
        return Err(StoreError::Truncated {
            needed: TABLE_OFF,
            len: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let file_len = read_u64(bytes, 32);
    if file_len != bytes.len() as u64 {
        return Err(StoreError::LengthMismatch {
            header: file_len,
            actual: bytes.len() as u64,
        });
    }
    let found_build = read_u64(bytes, 24);
    if found_build != build_key() {
        return Err(StoreError::BuildMismatch { found: found_build });
    }
    let stored = read_u64(bytes, CHECKSUM_OFF);
    let computed = archive_checksum(bytes);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let kind = read_u32(bytes, 12);
    if kind != expected_kind {
        return Err(StoreError::BadKind { found: kind });
    }
    let key = read_u64(bytes, 16);
    if key != expected_key {
        return Err(StoreError::KeyMismatch {
            expected: expected_key,
            found: key,
        });
    }
    let n_sections = match kind {
        KIND_PLAN => PLAN_SECTIONS,
        _ => BUNDLE_SECTIONS,
    };
    let table_end = TABLE_OFF + n_sections * 16;
    if bytes.len() < table_end {
        return Err(StoreError::Truncated {
            needed: table_end,
            len: bytes.len(),
        });
    }
    let mut meta = [0u64; META_LEN];
    for (i, m) in meta.iter_mut().enumerate() {
        *m = read_u64(bytes, HEADER_LEN + i * 8);
    }
    let sections = (0..n_sections)
        .map(|i| {
            (
                read_u64(bytes, TABLE_OFF + i * 16),
                read_u64(bytes, TABLE_OFF + i * 16 + 8),
            )
        })
        .collect();
    Ok(Archive {
        backing,
        key,
        meta,
        sections,
    })
}

impl Archive {
    fn section<T: crate::mapped::Pod>(&self, idx: usize) -> Result<Section<T>, StoreError> {
        let (off, len) = self.sections[idx];
        let off = usize::try_from(off).map_err(|_| StoreError::BadSection {
            section: idx,
            reason: "offset overflows",
        })?;
        let len = usize::try_from(len).map_err(|_| StoreError::BadSection {
            section: idx,
            reason: "length overflows",
        })?;
        Ok(Section::Mapped(Arc::new(MappedSection::<T>::new(
            Arc::clone(&self.backing),
            off,
            len,
            idx,
        )?)))
    }

    fn meta_usize(&self, idx: usize) -> Result<usize, StoreError> {
        usize::try_from(self.meta[idx]).map_err(|_| StoreError::BadSection {
            section: idx,
            reason: "metadata scalar overflows",
        })
    }
}

/// Opens archive bytes as a validated, zero-copy [`SolvePlan`] keyed to
/// `expected_fingerprint`.
///
/// # Errors
///
/// Any [`StoreError`] variant except `Io` — see the module docs for the
/// check order.
pub fn decode_plan(backing: Backing, expected_fingerprint: u64) -> Result<SolvePlan, StoreError> {
    let archive = open_archive(backing, KIND_PLAN, expected_fingerprint)?;
    let n_states = archive.meta_usize(1)?;
    let from_pos = archive.meta_usize(2)?;
    let slot_count = archive.meta_usize(3)?;
    let nt = archive.meta_usize(4)?;
    let n_terms = archive.meta_usize(5)?;
    if archive.meta[0] != PLAN_TAPE {
        return Err(StoreError::BadSection {
            section: 0,
            reason: "unknown plan kind",
        });
    }
    let parts = PlanParts {
        fingerprint: archive.key,
        n_states,
        from_pos,
        slot_count,
        t_idx: archive.section::<u32>(0)?,
        pos: archive.section::<u32>(1)?,
        r_slot: archive.section::<u32>(2)?,
        self_slot: archive.section::<u32>(3)?,
        term_off: archive.section::<u32>(4)?,
        term_slot: archive.section::<u32>(5)?,
        term_pos: archive.section::<u32>(6)?,
    };
    // Cross-check the table against the header metadata so the two can
    // never disagree silently.
    if parts.t_idx.len() != nt
        || parts.pos.len() != nt
        || parts.term_off.len() != nt + 1
        || parts.term_slot.len() != n_terms
    {
        return Err(StoreError::BadSection {
            section: 0,
            reason: "section lengths disagree with metadata",
        });
    }
    Ok(SolvePlan::from_parts(parts)?)
}

/// Opens archive bytes as a program bundle keyed to `expected_digest`,
/// returning the pinned plan fingerprints.
///
/// # Errors
///
/// Same contract as [`decode_plan`].
pub fn decode_bundle(backing: Backing, expected_digest: u64) -> Result<Vec<u64>, StoreError> {
    let archive = open_archive(backing, KIND_BUNDLE, expected_digest)?;
    let count = archive.meta_usize(0)?;
    let section = archive.section::<u64>(0)?;
    if section.len() != count {
        return Err(StoreError::BadSection {
            section: 0,
            reason: "section lengths disagree with metadata",
        });
    }
    Ok(section.as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::AlignedBytes;
    use archrel_markov::{DtmcBuilder, SolvePlan};

    fn backing(bytes: &[u8]) -> Backing {
        Arc::new(AlignedBytes::copy_from(bytes))
    }

    fn sample_plan() -> (SolvePlan, Vec<f64>) {
        let chain = DtmcBuilder::new()
            .transition("s", "a", 0.6)
            .transition("s", "b", 0.4)
            .transition("a", "end", 0.8)
            .transition("a", "fail", 0.2)
            .transition("b", "end", 0.9)
            .transition("b", "fail", 0.1)
            .build()
            .unwrap();
        let plan = SolvePlan::compile(&chain, &"s", &"end").unwrap().unwrap();
        let params = plan.parameters(&chain).unwrap();
        (plan, params)
    }

    #[test]
    fn plan_bytes_round_trip_and_are_zero_copy() {
        let (plan, params) = sample_plan();
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(backing(&bytes), plan.fingerprint()).unwrap();
        assert!(decoded.is_zero_copy());
        assert_eq!(decoded.fingerprint(), plan.fingerprint());
        assert_eq!(
            decoded.evaluate(&params).unwrap().to_bits(),
            plan.evaluate(&params).unwrap().to_bits()
        );
    }

    #[test]
    fn bundle_bytes_round_trip() {
        let fps = [1u64, 99, u64::MAX];
        let bytes = encode_bundle(7, &fps);
        assert_eq!(decode_bundle(backing(&bytes), 7).unwrap(), fps);
        assert!(matches!(
            decode_bundle(backing(&bytes), 8),
            Err(StoreError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn header_checks_fire_in_order() {
        let (plan, _) = sample_plan();
        let fp = plan.fingerprint();
        let good = encode_plan(&plan);

        assert!(matches!(
            decode_plan(backing(&good[..30]), fp),
            Err(StoreError::Truncated { .. })
        ));

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_plan(backing(&bad), fp),
            Err(StoreError::BadMagic)
        ));

        // Wrong version, checksum freshly recomputed: must surface as
        // BadVersion, not ChecksumMismatch.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let c = archive_checksum(&bad);
        bad[40..48].copy_from_slice(&c.to_le_bytes());
        assert!(matches!(
            decode_plan(backing(&bad), fp),
            Err(StoreError::BadVersion { found: 99 })
        ));

        // Truncated body: the header length pin catches it.
        assert!(matches!(
            decode_plan(backing(&good[..good.len() - 8]), fp),
            Err(StoreError::LengthMismatch { .. })
        ));

        // A flipped payload bit is a checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x10;
        assert!(matches!(
            decode_plan(backing(&bad), fp),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Wrong key (fingerprint-mismatch fixture).
        assert!(matches!(
            decode_plan(backing(&good), fp ^ 1),
            Err(StoreError::KeyMismatch { .. })
        ));

        // Hostile but checksum-valid framing: out-of-bounds section offset.
        let mut bad = good.clone();
        bad[TABLE_OFF..TABLE_OFF + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let c = archive_checksum(&bad);
        bad[40..48].copy_from_slice(&c.to_le_bytes());
        assert!(matches!(
            decode_plan(backing(&bad), fp),
            Err(StoreError::BadSection { .. })
        ));
    }
}
