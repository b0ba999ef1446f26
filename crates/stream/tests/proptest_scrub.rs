//! Property test for the anti-entropy scrub of a replicated
//! [`DurableSink`]: one pass over random records and one injected fault
//! reports exactly what the fault did and leaves the files as the stance
//! requires.
//!
//! A healthy replica is byte-identical to its primary, and the scrub ends
//! such a pass after one byte compare and one CRC scan of the shared
//! bytes. These cases pin that the shortcut hides nothing:
//! - no fault: no defects, and both files are untouched;
//! - a replica fault (a flipped byte, or a cut at any offset): lag or
//!   divergence plus `ScrubRepaired`, and byte identity is restored;
//! - a fault in both copies, or in the primary alone: the primary's own
//!   defect (none when the flip trashed the primary's header, which makes
//!   the primary unreadable — the crash-failover path's problem), no
//!   repair, and the replica's bytes are unchanged.

use emoleak_durable::Defect;
use emoleak_stream::durable::{ChunkAdmit, ChunkServe, DurableSink, LedgerRecord};
use proptest::prelude::*;
use std::path::PathBuf;

/// Journal header length: magic (4) + version (2). It carries no CRC;
/// every byte after it belongs to a CRC-checked frame.
const HEADER_LEN: usize = 6;

/// One generated record: a kind selector, two numbers and a tenant name.
type RawRecord = (u32, u64, u64, Vec<u32>);

fn raw_records() -> impl Strategy<Value = Vec<RawRecord>> {
    prop::collection::vec(
        (0u32..4, 0u64..1_000_000, 0u64..64, prop::collection::vec(97u32..123, 0..12usize)),
        0..10usize,
    )
}

fn journal(sink: &DurableSink, raw: &[RawRecord]) {
    for (kind, a, b, name) in raw {
        let tenant: String = name.iter().filter_map(|c| char::from_u32(*c)).collect();
        match kind {
            0 => sink.record_admit(&ChunkAdmit { tick: *a, tenant, seq: *b, cost: b % 7 }),
            1 => sink.record_serve(&ChunkServe { tick: *a, tenant, seq: *b }),
            2 => sink.record_shed(*a, &tenant, *b, a % 13),
            _ => sink.record_ledger(&LedgerRecord { tick: *a, offered: *b, ..Default::default() }),
        }
    }
}

fn defect_path(defect: &Defect) -> Option<&str> {
    match defect {
        Defect::TornTail { path, .. } | Defect::CorruptRecord { path, .. } => Some(path),
        _ => None,
    }
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emoleak-proptest-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fault codes: 0 none, 1 flip a replica byte, 2 cut the replica,
    /// 3 flip the same byte in both copies, 4 flip a primary byte.
    #[test]
    fn one_scrub_pass_reports_and_repairs_exactly_the_injected_fault(
        raw in raw_records(),
        fault in 0u32..5,
        at in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let dir = scratch();
        let primary = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&primary, &replica).unwrap();
        journal(&sink, &raw);
        prop_assert!(sink.take_error().is_none());
        prop_assert!(sink.take_replica_error().is_none());
        let clean = std::fs::read(&primary).unwrap();
        prop_assert_eq!(&clean, &std::fs::read(&replica).unwrap());

        let at = at % clean.len();
        let mut flipped = clean.clone();
        flipped[at] ^= mask as u8;
        match fault {
            1 => std::fs::write(&replica, &flipped).unwrap(),
            2 => std::fs::write(&replica, &clean[..at]).unwrap(),
            3 => {
                std::fs::write(&primary, &flipped).unwrap();
                std::fs::write(&replica, &flipped).unwrap();
            }
            4 => std::fs::write(&primary, &flipped).unwrap(),
            _ => {}
        }
        let primary_before = std::fs::read(&primary).unwrap();
        let replica_before = std::fs::read(&replica).unwrap();

        let defects = sink.scrub_replica();
        let repaired = defects.iter().any(|d| matches!(d, Defect::ScrubRepaired { .. }));
        prop_assert_eq!(&std::fs::read(&primary).unwrap(), &primary_before);
        match fault {
            1 | 2 => {
                prop_assert!(
                    defects.iter().any(|d| matches!(
                        d,
                        Defect::ReplicaLag { .. } | Defect::ReplicaDiverged { .. }
                    )),
                    "{:?}", defects
                );
                prop_assert!(repaired, "{:?}", defects);
                prop_assert_eq!(&std::fs::read(&replica).unwrap(), &clean);
            }
            3 | 4 => {
                prop_assert!(!repaired, "{:?}", defects);
                prop_assert_eq!(&std::fs::read(&replica).unwrap(), &replica_before);
                if at < HEADER_LEN {
                    prop_assert!(defects.is_empty(), "{:?}", defects);
                } else {
                    prop_assert!(defects.len() == 1, "{:?}", defects);
                    let origin = primary.display().to_string();
                    prop_assert_eq!(defect_path(&defects[0]), Some(origin.as_str()));
                }
            }
            _ => {
                prop_assert!(defects.is_empty(), "{:?}", defects);
                prop_assert_eq!(&std::fs::read(&replica).unwrap(), &clean);
            }
        }
        drop(sink);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
