//! Segment-shipping codec for journal replication ("EMOR" segments).
//!
//! Replication moves committed journal records from a primary shard to its
//! follower. The unit of transfer is a *segment*: a self-verifying byte
//! container holding a batch of [`Record`]s in append order.
//!
//! ## On-disk / on-wire format
//!
//! ```text
//! header   : magic "EMOR" (4) | version u16 LE (2) | count u64 LE (8)
//! frame    : len u32 LE (4) | crc u32 LE (4) | payload (len bytes)
//! payload  : kind u8 (1) | seq u64 LE (8) | data (len - 9 bytes)
//! ```
//!
//! Frames reuse the journal's record framing (CRC-32 over the payload), so
//! a segment survives the same damage model: truncation mid-frame decodes
//! to the valid prefix plus a [`Defect::TornTail`], a flipped bit to the
//! prefix plus a [`Defect::CorruptRecord`]. Decoding never panics and never
//! allocates from an implausible length prefix. The `count` field lets the
//! receiver distinguish "short segment by design" from "short segment by
//! damage" even when the tail tears exactly on a frame boundary.
//!
//! The comparison primitive [`compare_streams`] classifies a replica
//! against its primary: identical, a strict prefix ([`StreamDiff::ReplicaLag`],
//! the normal state right after a crash mid-ship), or diverged at a record
//! index ([`StreamDiff::Diverged`], bit rot or a torn ship). The scrubber
//! maps these onto [`Defect::ReplicaLag`] / [`Defect::ReplicaDiverged`] and
//! repairs by re-shipping ([`rebuild_journal`]).

use crate::error::{Defect, DurableError};
use crate::journal::{encode_record, scan_frames, Journal, Record};
use crate::wire::Enc;
use crate::SHIP_VERSION;
use std::path::Path;

/// Ship segment magic.
pub const SHIP_MAGIC: &[u8; 4] = b"EMOR";

/// Header length: magic + version + record count.
const HEADER_LEN: usize = 14;

/// Encodes `records` as one self-verifying ship segment.
pub fn encode_segment(records: &[Record]) -> Vec<u8> {
    let mut bytes = SHIP_MAGIC.to_vec();
    let mut header = Enc::new();
    header.u16(SHIP_VERSION).u64(records.len() as u64);
    bytes.extend_from_slice(&header.into_bytes());
    for r in records {
        bytes.extend_from_slice(&encode_record(r.kind, r.seq, &r.data));
    }
    bytes
}

/// Decodes a ship segment, tolerating a damaged tail.
///
/// Returns the records that verify (always a prefix, in shipped order) and
/// the defects found: a torn tail or corrupt frame stops the scan with the
/// matching [`Defect`], and a frame count short of the header's promise is
/// reported as a [`Defect::TornTail`] even when the truncation landed
/// exactly on a frame boundary.
///
/// # Errors
///
/// [`DurableError::Format`] if the magic is wrong (the bytes are not a
/// segment at all), [`DurableError::Version`] if written by a newer build.
/// Damage after a valid header is a defect, not an error.
pub fn decode_segment(bytes: &[u8], origin: &str) -> Result<(Vec<Record>, Vec<Defect>), DurableError> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != SHIP_MAGIC {
        return Err(DurableError::Format {
            path: origin.to_string(),
            detail: "ship segment magic mismatch (expected \"EMOR\")".into(),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > SHIP_VERSION {
        return Err(DurableError::Version {
            path: origin.to_string(),
            found: version,
            supported: SHIP_VERSION,
        });
    }
    let count = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let (defect, committed) =
        scan_frames(bytes, HEADER_LEN, origin, |f| records.push(f.to_record()));
    let mut defects: Vec<Defect> = defect.into_iter().collect();
    if defects.is_empty() && (records.len() as u64) < count {
        // The scan ran clean but stopped short of the promised count: the
        // segment was truncated exactly on a frame boundary.
        defects.push(Defect::TornTail {
            path: origin.to_string(),
            offset: committed as u64,
            lost: 0,
        });
    }
    Ok((records, defects))
}

/// How a replica's record stream relates to its primary's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamDiff {
    /// Record-for-record identical.
    Identical,
    /// The replica is a strict prefix of the primary — the normal state
    /// after a crash between primary commit and replica ship, or while a
    /// fresh follower catches up.
    ReplicaLag {
        /// Records the replica is missing.
        missing: u64,
    },
    /// The replica's record at index `at` differs from the primary's (or
    /// the replica has records the primary never wrote).
    Diverged {
        /// 0-based index of the first divergence.
        at: u64,
    },
}

/// Classifies `replica` against `primary` record-by-record.
///
/// Replication ships synchronously *after* the primary commit, so a
/// replica can legitimately trail but never lead: extra replica records
/// beyond the primary's stream are divergence, not lag.
pub fn compare_streams(primary: &[Record], replica: &[Record]) -> StreamDiff {
    for (i, (p, r)) in primary.iter().zip(replica.iter()).enumerate() {
        if p != r {
            return StreamDiff::Diverged { at: i as u64 };
        }
    }
    match replica.len().cmp(&primary.len()) {
        std::cmp::Ordering::Less => {
            StreamDiff::ReplicaLag { missing: (primary.len() - replica.len()) as u64 }
        }
        std::cmp::Ordering::Equal => StreamDiff::Identical,
        std::cmp::Ordering::Greater => StreamDiff::Diverged { at: primary.len() as u64 },
    }
}

/// Rebuilds the journal at `path` from scratch to hold exactly `records`.
///
/// The read-repair primitive: used when a replica diverged (full rebuild
/// from the primary's stream) and when a follower change re-homes a
/// replica onto a new shard. Each record is appended with full commit
/// semantics, so a crash mid-rebuild leaves a valid prefix that the next
/// scrub pass finishes.
pub fn rebuild_journal(path: &Path, records: &[Record]) -> Result<Journal, DurableError> {
    rebuild_journal_with(path, records, &crate::vfs::OsVfs)
}

/// [`rebuild_journal`] with every durable byte routed through `vfs` — so a
/// scrub repair running on a sick disk hits the same ENOSPC/EIO faults as
/// the appends it is repairing.
pub fn rebuild_journal_with(
    path: &Path,
    records: &[Record],
    vfs: &dyn crate::vfs::Vfs,
) -> Result<Journal, DurableError> {
    let mut journal = Journal::create_with(path, vfs)?;
    for r in records {
        journal.append(r.kind, r.seq, &r.data)?;
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                kind: (i % 3) as u8 + 1,
                seq: i,
                data: format!("payload-{i}").into_bytes(),
            })
            .collect()
    }

    #[test]
    fn segment_round_trips() {
        for n in [0u64, 1, 7] {
            let records = batch(n);
            let bytes = encode_segment(&records);
            let (decoded, defects) = decode_segment(&bytes, "<memory>").unwrap();
            assert!(defects.is_empty(), "{defects:?}");
            assert_eq!(decoded, records);
        }
    }

    #[test]
    fn truncation_yields_prefix_and_torn_tail() {
        let records = batch(4);
        let bytes = encode_segment(&records);
        // Cut mid-way through the last frame.
        let cut = bytes.len() - 5;
        let (decoded, defects) = decode_segment(&bytes[..cut], "<memory>").unwrap();
        assert_eq!(decoded, records[..3]);
        assert!(matches!(defects.as_slice(), [Defect::TornTail { .. }]), "{defects:?}");
    }

    #[test]
    fn frame_boundary_truncation_is_still_detected() {
        // Drop the whole last frame: the scan runs clean but the header's
        // count exposes the loss.
        let records = batch(3);
        let full = encode_segment(&records);
        let short = encode_segment(&records[..2]);
        let frame_len = full.len() - (short.len() - HEADER_LEN) - HEADER_LEN;
        let _ = frame_len;
        let mut cut = full.clone();
        cut.truncate(HEADER_LEN + (short.len() - HEADER_LEN));
        let (decoded, defects) = decode_segment(&cut, "<memory>").unwrap();
        assert_eq!(decoded, records[..2]);
        assert!(matches!(defects.as_slice(), [Defect::TornTail { lost: 0, .. }]), "{defects:?}");
    }

    #[test]
    fn bit_flip_yields_prefix_and_corrupt_record() {
        let records = batch(3);
        let mut bytes = encode_segment(&records);
        let mid = bytes.len() - 4; // inside the last frame's payload
        bytes[mid] ^= 0x40;
        let (decoded, defects) = decode_segment(&bytes, "<memory>").unwrap();
        assert_eq!(decoded, records[..2]);
        assert!(matches!(defects.as_slice(), [Defect::CorruptRecord { .. }]), "{defects:?}");
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed_errors() {
        assert!(matches!(
            decode_segment(b"not a segment!", "<memory>"),
            Err(DurableError::Format { .. })
        ));
        let mut bytes = SHIP_MAGIC.to_vec();
        let mut header = Enc::new();
        header.u16(SHIP_VERSION + 1).u64(0);
        bytes.extend_from_slice(&header.into_bytes());
        assert!(matches!(
            decode_segment(&bytes, "<memory>"),
            Err(DurableError::Version { .. })
        ));
    }

    #[test]
    fn compare_streams_classifies_all_three_shapes() {
        let primary = batch(4);
        assert_eq!(compare_streams(&primary, &primary), StreamDiff::Identical);
        assert_eq!(
            compare_streams(&primary, &primary[..2]),
            StreamDiff::ReplicaLag { missing: 2 }
        );
        let mut diverged = primary.clone();
        diverged[1].data = b"tampered".to_vec();
        assert_eq!(compare_streams(&primary, &diverged), StreamDiff::Diverged { at: 1 });
        // A replica that leads its primary is divergence, not lag.
        let mut ahead = primary.clone();
        ahead.push(Record { kind: 1, seq: 99, data: Vec::new() });
        assert_eq!(compare_streams(&primary, &ahead), StreamDiff::Diverged { at: 4 });
    }

    #[test]
    fn rebuild_journal_replays_byte_identically() {
        let dir = std::env::temp_dir().join(format!("emoleak-ship-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records = batch(5);
        let a = dir.join("a.log");
        let b = dir.join("b.log");
        drop(rebuild_journal(&a, &records).unwrap());
        drop(rebuild_journal(&b, &records).unwrap());
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let (replayed, defects) = Journal::verify(&a).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(replayed, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
