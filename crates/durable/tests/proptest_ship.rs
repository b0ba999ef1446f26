//! Property tests for the journal bytes that replication ships record by
//! record: graceful prefix decoding under arbitrary truncation and bit
//! flips (typed defects, never a panic), and read-repair convergence — a
//! diverged replica rebuilt from its primary always compares `Identical`.
//!
//! These properties are what let crash failover trust a *clean* journal
//! scan as a complete account of every committed record: any damage the
//! nemesis can inflict inside a frame must surface as a `Defect` or a
//! typed error, so a silent partial decode (the one outcome that would
//! corrupt the fleet's conservation books) is impossible. A journal keeps
//! no record count, so a cut that lands exactly on a frame boundary reads
//! as a clean, shorter journal; the scrubber's stream compare is what
//! catches such a replica.

use emoleak_durable::ship::{compare_streams, rebuild_journal_with, StreamDiff};
use emoleak_durable::{Defect, DurableError, Journal, OsVfs, Record};
use proptest::prelude::*;
use std::path::PathBuf;

/// Journal header length: magic (4) + version (2).
const HEADER_LEN: usize = 6;

/// Frame bytes around a record's data: len (4) + crc (4) + kind (1) +
/// seq (8).
const FRAME_OVERHEAD: usize = 17;

/// Raw generated material for one record; the vendored proptest shim has
/// no `prop_map`, so the narrowing to `u8` happens in the test body.
type RawRecord = (u32, u64, Vec<u32>);

fn raw_batch(
    max: usize,
) -> impl Strategy<Value = Vec<RawRecord>> {
    prop::collection::vec(
        (0u32..256, 0u64..1_000_000, prop::collection::vec(0u32..256, 0..24usize)),
        0..max,
    )
}

fn records_from(raw: &[RawRecord]) -> Vec<Record> {
    raw.iter()
        .map(|(kind, seq, data)| Record {
            kind: (*kind % 256) as u8,
            seq: *seq,
            data: data.iter().map(|b| (*b % 256) as u8).collect(),
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emoleak-proptest-ship-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The bytes of a journal holding exactly `records`, as a replica
/// rebuilt from them is written.
fn journal_bytes(records: &[Record], name: &str) -> Vec<u8> {
    let path = scratch(name);
    drop(rebuild_journal_with(&path, records, &OsVfs).unwrap());
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Scans journal bytes into records.
fn scan(bytes: &[u8]) -> Result<(Vec<Record>, Vec<Defect>), DurableError> {
    let mut records = Vec::new();
    let defects = Journal::scan(bytes, "<memory>", |f| records.push(f.to_record()))?;
    Ok((records, defects))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating a journal anywhere yields a valid *prefix* of the
    /// original records (or a typed format error when the cut lands inside
    /// the header) — never a panic. The prefix is clean exactly when the
    /// cut lands on a frame boundary, and carries a typed defect otherwise.
    #[test]
    fn truncation_decodes_to_prefix_with_typed_defect(
        raw in raw_batch(12),
        cut_sel in 0usize..1_000_000,
    ) {
        let records = records_from(&raw);
        let bytes = journal_bytes(&records, "truncation.log");
        let boundaries: Vec<usize> = records
            .iter()
            .scan(HEADER_LEN, |end, r| {
                *end += FRAME_OVERHEAD + r.data.len();
                Some(*end)
            })
            .collect();
        prop_assert_eq!(boundaries.last().copied().unwrap_or(HEADER_LEN), bytes.len());
        let cut = cut_sel % (bytes.len() + 1); // 0..=len
        match scan(&bytes[..cut]) {
            Err(DurableError::Format { .. }) => {
                // Only a header-destroying cut may be a format error.
                prop_assert!(cut < HEADER_LEN, "format error at cut {}", cut);
            }
            Err(e) => prop_assert!(false, "untyped refusal at cut {}: {}", cut, e),
            Ok((decoded, defects)) => {
                prop_assert!(cut >= HEADER_LEN);
                prop_assert!(decoded.len() <= records.len());
                prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
                if cut == HEADER_LEN || boundaries.contains(&cut) {
                    prop_assert!(defects.is_empty(), "boundary cut {}: {:?}", cut, defects);
                    let whole = boundaries.iter().filter(|&&end| end <= cut).count();
                    prop_assert_eq!(decoded.len(), whole);
                } else {
                    prop_assert!(
                        defects.iter().any(|d| matches!(
                            d,
                            Defect::TornTail { .. } | Defect::CorruptRecord { .. }
                        )),
                        "silent short decode at cut {}: {:?}", cut, defects
                    );
                }
            }
        }
    }

    /// Flipping any single bit yields a valid prefix plus a typed defect
    /// or a typed error — never a panic, never a silent wrong decode. The
    /// decoded records, when they verify, are still a prefix of the true
    /// stream (CRC-32 catches every single-bit flip inside a frame).
    #[test]
    fn bit_flip_is_detected_or_harmless(
        raw in raw_batch(12),
        pos_sel in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let records = records_from(&raw);
        let mut bytes = journal_bytes(&records, "bit-flip.log");
        let pos = pos_sel % bytes.len(); // the header guarantees len >= 6
        bytes[pos] ^= 1 << bit;
        match scan(&bytes) {
            // Magic / version damage: a typed refusal is the right answer.
            Err(DurableError::Format { .. } | DurableError::Version { .. }) => {
                prop_assert!(pos < HEADER_LEN, "header error from a body flip at {}", pos);
            }
            Err(e) => prop_assert!(false, "untyped refusal for flip at {}: {}", pos, e),
            Ok((decoded, defects)) => {
                prop_assert!(pos >= HEADER_LEN, "a header flip at {} scanned clean", pos);
                prop_assert!(decoded.len() <= records.len());
                prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
                prop_assert!(!defects.is_empty(), "a body flip at {} went unnoticed", pos);
            }
        }
    }

    /// `compare_streams` classifies exactly — identical iff equal, lag iff
    /// strict prefix, diverged otherwise — and read-repair by rebuild
    /// always converges to `Identical`, even from a tampered replica.
    #[test]
    fn divergence_is_classified_and_repair_converges(
        raw in raw_batch(10),
        keep_sel in 0usize..1_000_000,
        tamper_sel in 0usize..1_000_000,
        tamper_flag in 0u32..2,
    ) {
        let mut primary = records_from(&raw);
        if primary.is_empty() {
            // The empty stream only has the identical shape.
            primary.push(Record { kind: 1, seq: 0, data: b"seed".to_vec() });
        }
        // Build a replica: a prefix of the primary, optionally with one
        // record tampered inside the kept range.
        let keep = keep_sel % (primary.len() + 1); // 0..=len
        let mut replica: Vec<Record> = primary[..keep].to_vec();
        let tampered_at = if tamper_flag == 1 && !replica.is_empty() {
            let at = tamper_sel % replica.len();
            replica[at].data.push(0xEE); // longer data: differs for sure
            Some(at as u64)
        } else {
            None
        };
        let expect = match tampered_at {
            Some(at) => StreamDiff::Diverged { at },
            None if keep == primary.len() => StreamDiff::Identical,
            None => StreamDiff::ReplicaLag { missing: (primary.len() - keep) as u64 },
        };
        prop_assert_eq!(compare_streams(&primary, &replica), expect);

        // Read-repair: rebuild from the primary, verify, compare again.
        let path = scratch("replica.log");
        drop(rebuild_journal_with(&path, &primary, &OsVfs).unwrap());
        let verified = Journal::verify(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let (repaired, defects) = verified;
        prop_assert!(defects.is_empty(), "{:?}", defects);
        prop_assert_eq!(compare_streams(&primary, &repaired), StreamDiff::Identical);
    }
}
