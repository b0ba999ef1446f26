//! Typed durability errors and recovery defect reports.
//!
//! The durability layer has two distinct failure surfaces:
//!
//! - [`DurableError`] — the *fatal* surface: an operation could not complete
//!   (I/O failed, a file is not ours, a format version is from the future,
//!   an injected crash fired). These propagate to the caller as `Err`.
//! - [`Defect`] — the *recovered* surface: something on disk was damaged
//!   (torn tail, flipped bit, stale manifest) and recovery repaired it by
//!   falling back to the last valid state. Opening a damaged store is `Ok`,
//!   but every repair is reported as a typed defect so chaos harnesses can
//!   assert that nothing was silently papered over.

/// A fatal durability failure. Never a panic, never silently corrupt data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An OS-level file operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The operation that failed (`open`, `write`, `fsync`, `rename`…).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// The file is not a durability-layer file at all (bad magic).
    Format {
        /// The offending file.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The file was written by a *newer* format version than this build
    /// supports. Refusing is the only safe move: a future version may have
    /// changed record layout in ways the checksum cannot reveal.
    Version {
        /// The offending file.
        path: String,
        /// The version found in the header.
        found: u16,
        /// The newest version this build understands.
        supported: u16,
    },
    /// Checksummed content failed verification (bit flip, torn write, bad
    /// length) in a context where no older state exists to fall back to.
    Corrupt {
        /// The offending file (`"<memory>"` for in-memory decodes).
        path: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What the verifier saw.
        detail: String,
    },
    /// A seeded crash injection fired (see [`crate::CrashPlan`]). Models a
    /// `SIGKILL` landing at a write syscall boundary: the partial on-disk
    /// effect is left exactly as a killed process would leave it.
    Injected {
        /// The durable-operation counter value the plan armed.
        op: u64,
        /// Which operation was cut short.
        detail: String,
    },
    /// The journal refused an append because an earlier fsync failed (or a
    /// failed write could not be cut back). Once an fsync errors, the
    /// kernel may have dropped the dirty pages — the journal's on-disk tail
    /// is unknowable — so the handle latches and every later append is
    /// refused until [`crate::Journal::reopen_with`] cuts the file back to
    /// the last record the handle synced and re-verifies it.
    Poisoned {
        /// The journal file whose fsync failed.
        path: String,
        /// The failure that latched the handle.
        cause: String,
    },
    /// The append was refused because the writer's fencing token is stale:
    /// a coordinator has since fenced this writer's incarnation and handed
    /// the journal to a successor. A resurrected stale shard hits this
    /// instead of corrupting the replay — the bytes on disk are untouched.
    Fenced {
        /// The journal file the stale writer tried to append to.
        path: String,
        /// The fencing token the writer holds.
        held: u64,
        /// The minimum token the storage authority currently accepts.
        current: u64,
    },
}

impl core::fmt::Display for DurableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DurableError::Io { path, op, message } => {
                write!(f, "io error: {op} {path}: {message}")
            }
            DurableError::Format { path, detail } => {
                write!(f, "format error: {path}: {detail}")
            }
            DurableError::Version { path, found, supported } => write!(
                f,
                "version error: {path}: written by format v{found}, this build supports \
                 up to v{supported}"
            ),
            DurableError::Corrupt { path, offset, detail } => {
                write!(f, "corrupt data: {path} at byte {offset}: {detail}")
            }
            DurableError::Injected { op, detail } => {
                write!(f, "injected crash at durable op #{op}: {detail}")
            }
            DurableError::Poisoned { path, cause } => {
                write!(f, "journal poisoned: {path}: append refused after failed fsync ({cause})")
            }
            DurableError::Fenced { path, held, current } => write!(
                f,
                "fenced writer: {path}: append refused, token {held} is below the \
                 authority's minimum {current}"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl DurableError {
    /// Wraps an [`std::io::Error`] with the path and operation it hit.
    pub fn io(path: &std::path::Path, op: &'static str, e: &std::io::Error) -> DurableError {
        DurableError::Io { path: path.display().to_string(), op, message: e.to_string() }
    }

    /// Whether this error is an injected crash (chaos harnesses resume
    /// after these; anything else is a real failure).
    pub fn is_injected(&self) -> bool {
        matches!(self, DurableError::Injected { .. })
    }

    /// Whether this error is a fencing-token rejection (a stale writer was
    /// refused; the journal bytes are untouched).
    pub fn is_fenced(&self) -> bool {
        matches!(self, DurableError::Fenced { .. })
    }
}

/// A damage site that recovery detected *and repaired* by falling back to
/// the last valid state, or a hole it detected in a stream that scans
/// clean ([`Defect::RecordGap`]). Reported, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// The journal ended mid-record (kill during append); the tail was
    /// truncated to the last whole record.
    TornTail {
        /// The journal file.
        path: String,
        /// Offset the journal was truncated back to.
        offset: u64,
        /// Bytes discarded.
        lost: u64,
    },
    /// A journal record failed its CRC (bit flip); the journal was
    /// truncated to the last record that verified.
    CorruptRecord {
        /// The journal file.
        path: String,
        /// Offset of the failing record.
        offset: u64,
        /// What the verifier saw.
        detail: String,
    },
    /// A snapshot file failed verification; recovery fell back to an older
    /// snapshot (or a fresh start).
    SnapshotInvalid {
        /// The snapshot file.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// The manifest failed verification; recovery scanned the directory for
    /// the newest valid snapshot instead.
    ManifestInvalid {
        /// The manifest file.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// The manifest named a snapshot that does not exist or does not verify
    /// (kill between snapshot replacement steps, or external damage).
    ManifestStale {
        /// The manifest file.
        path: String,
        /// The snapshot sequence number it pointed at.
        snapshot: u64,
    },
    /// The journal tail does not continue the recovered snapshot (its first
    /// record's unit index is not the snapshot cursor); the tail belongs to
    /// a different epoch and was discarded.
    JournalEpochMismatch {
        /// The journal file.
        path: String,
        /// The unit index the snapshot expects next.
        expect: u64,
        /// The unit index the journal starts at.
        found: u64,
    },
    /// Checkpointed state belonged to a different campaign configuration
    /// (fingerprint mismatch) and was discarded in favor of a fresh run.
    StateDiscarded {
        /// What differed.
        detail: String,
    },
    /// The scrubber found the replica a strict prefix of the primary (a
    /// crash between primary commit and replica ship, or a fresh follower
    /// still catching up); the missing suffix was re-shipped.
    ReplicaLag {
        /// The replica file.
        path: String,
        /// Records the replica was behind by.
        missing: u64,
    },
    /// The scrubber found a replica record that differs from the primary's
    /// record at the same position (bit rot, external damage, or a torn
    /// ship); the replica was rebuilt from the primary.
    ReplicaDiverged {
        /// The replica file.
        path: String,
        /// Record index (0-based) of the first divergence.
        at: u64,
    },
    /// A journal that scans clean skips record sequence numbers: its writer
    /// counted these records but this copy never took them (a degraded
    /// writer journaled them elsewhere or nowhere). Nothing is repaired;
    /// positions after the gap do not match the writer's counters.
    RecordGap {
        /// The journal file.
        path: String,
        /// The first sequence number missing.
        seq: u64,
        /// How many consecutive sequence numbers are missing.
        missing: u64,
    },
    /// A scrub pass repaired a replica (re-ship or rebuild). Always
    /// accompanied by the [`Defect::ReplicaLag`] / [`Defect::ReplicaDiverged`]
    /// that triggered it; counted separately so health views can report
    /// repairs distinct from detections.
    ScrubRepaired {
        /// The replica file that was repaired.
        path: String,
        /// Records in the replica after repair.
        records: u64,
    },
}

impl core::fmt::Display for Defect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Defect::TornTail { path, offset, lost } => write!(
                f,
                "torn journal tail: {path} truncated to byte {offset} ({lost} bytes lost)"
            ),
            Defect::CorruptRecord { path, offset, detail } => {
                write!(f, "corrupt journal record: {path} at byte {offset}: {detail}")
            }
            Defect::SnapshotInvalid { path, detail } => {
                write!(f, "invalid snapshot: {path}: {detail}")
            }
            Defect::ManifestInvalid { path, detail } => {
                write!(f, "invalid manifest: {path}: {detail}")
            }
            Defect::ManifestStale { path, snapshot } => {
                write!(f, "stale manifest: {path} points at missing/invalid snapshot #{snapshot}")
            }
            Defect::JournalEpochMismatch { path, expect, found } => write!(
                f,
                "journal epoch mismatch: {path} starts at unit {found}, snapshot expects {expect}"
            ),
            Defect::StateDiscarded { detail } => {
                write!(f, "checkpoint discarded: {detail}")
            }
            Defect::ReplicaLag { path, missing } => {
                write!(f, "replica lag: {path} is {missing} record(s) behind its primary")
            }
            Defect::ReplicaDiverged { path, at } => {
                write!(f, "replica diverged: {path} differs from its primary at record {at}")
            }
            Defect::RecordGap { path, seq, missing } => {
                write!(f, "record gap: {path} skips {missing} record(s) from seq {seq}")
            }
            Defect::ScrubRepaired { path, records } => {
                write!(f, "scrub repaired: {path} rebuilt to {records} record(s)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = DurableError::Version { path: "snap-3.bin".into(), found: 9, supported: 1 };
        let msg = e.to_string();
        assert!(msg.contains("snap-3.bin") && msg.contains("v9") && msg.contains("v1"), "{msg}");
        let e = DurableError::Corrupt {
            path: "journal.log".into(),
            offset: 42,
            detail: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("byte 42"), "{e}");
        assert!(!e.is_injected());
        assert!(DurableError::Injected { op: 3, detail: "append".into() }.is_injected());
        let e = DurableError::Fenced { path: "shard-0.log".into(), held: 2, current: 3 };
        assert!(e.is_fenced() && !e.is_injected());
        let msg = e.to_string();
        assert!(msg.contains("token 2") && msg.contains("minimum 3"), "{msg}");
    }

    #[test]
    fn defects_render_their_repair() {
        let d = Defect::TornTail { path: "j".into(), offset: 10, lost: 5 };
        assert!(d.to_string().contains("truncated"));
        let d = Defect::ManifestStale { path: "m".into(), snapshot: 7 };
        assert!(d.to_string().contains("#7"));
    }
}
