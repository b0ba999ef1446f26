//! Replica checks for journal replication.
//!
//! A replicated writer ships each committed journal record to its
//! follower's journal right after the primary commit, record by record, so
//! a replica is a plain [`Journal`] whose bytes match the primary's when
//! nothing went wrong. When something did — a crash between the primary
//! commit and the ship, a torn ship, bit rot — the scrubber needs two
//! primitives, and this module holds them:
//!
//! - [`compare_streams`] classifies a replica's records against its
//!   primary's: identical, a strict prefix ([`StreamDiff::ReplicaLag`], the
//!   normal state right after a crash mid-ship), or diverged at a record
//!   index ([`StreamDiff::Diverged`], bit rot or a torn ship). The scrubber
//!   maps these onto [`Defect::ReplicaLag`](crate::Defect::ReplicaLag) /
//!   [`Defect::ReplicaDiverged`](crate::Defect::ReplicaDiverged);
//! - [`rebuild_journal_with`] read-repairs by writing a fresh copy of the
//!   primary's records.

use crate::error::DurableError;
use crate::journal::{Journal, Record};
use std::path::Path;

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

/// Rebuilds the journal at `path` from scratch to hold exactly `records`,
/// with every durable byte routed through `vfs` — so a scrub repair
/// running on a sick disk hits the same ENOSPC/EIO faults as the appends
/// it is repairing.
///
/// The read-repair primitive: used when a replica diverged (full rebuild
/// from the primary's stream) and when a follower change re-homes a
/// replica onto a new shard. Each record is appended with full commit
/// semantics, so a crash mid-rebuild leaves a valid prefix that the next
/// scrub pass finishes.
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
    use crate::vfs::OsVfs;

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
        drop(rebuild_journal_with(&a, &records, &OsVfs).unwrap());
        drop(rebuild_journal_with(&b, &records, &OsVfs).unwrap());
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let (replayed, defects) = Journal::verify(&a).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(replayed, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
