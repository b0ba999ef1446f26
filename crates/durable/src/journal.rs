//! Write-ahead journal: length-prefixed, CRC32-checksummed, versioned
//! records with append + fsync semantics.
//!
//! ## On-disk format
//!
//! ```text
//! header   : magic "EMOJ" (4) | version u16 LE (2)
//! record   : len u32 LE (4) | crc u32 LE (4) | payload (len bytes)
//! payload  : kind u8 (1) | seq u64 LE (8) | data (len - 9 bytes)
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. A record is *committed* once its
//! bytes are on disk in full and the CRC verifies; [`Journal::open`] scans
//! forward record by record and truncates the file back to the last
//! committed record, reporting the repair as a [`Defect`]. A kill during
//! append therefore loses at most the record being written — never an
//! earlier one, and never silently.

use crate::error::{Defect, DurableError};
use crate::vfs::{OsVfs, Vfs, VfsFile};
use crate::wire::{crc32, Dec, Enc};
use crate::JOURNAL_VERSION;
use std::path::{Path, PathBuf};

/// Journal file magic.
pub const JOURNAL_MAGIC: &[u8; 4] = b"EMOJ";

/// Header length: magic + version.
const HEADER_LEN: u64 = 6;

/// Sanity cap on a single record's payload. A length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// One committed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type tag (the layer above assigns meanings).
    pub kind: u8,
    /// Monotonic sequence / unit index assigned by the writer.
    pub seq: u64,
    /// Opaque record body.
    pub data: Vec<u8>,
}

/// One committed record frame, borrowed from the bytes it was scanned
/// from. [`Journal::scan`] hands these out so that a check which keeps no
/// records copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Record type tag.
    pub kind: u8,
    /// Sequence / unit index assigned by the writer.
    pub seq: u64,
    /// Record body.
    pub data: &'a [u8],
}

impl Frame<'_> {
    /// An owned copy of the record this frame holds.
    pub fn to_record(&self) -> Record {
        Record { kind: self.kind, seq: self.seq, data: self.data.to_vec() }
    }
}

/// An append-only journal handle, positioned at the end of the last
/// committed record.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Set to the fsync failure message once a sync fails. A failed fsync
    /// means the kernel may have dropped the dirty pages — the on-disk tail
    /// is unknowable — so the handle refuses every later append
    /// ([`DurableError::Poisoned`]) until the file is reopened.
    poisoned: Option<String>,
    /// One-shot injected fsync failure (armed by crash plans).
    fail_fsync: bool,
    /// Fsync stall ticks accumulated since the last
    /// [`Journal::take_stalled_ticks`] — the disk-latency signal the
    /// durability gauge consumes.
    stalled: u64,
}

/// Writes a whole frame through the seam, surfacing an injected short
/// write as a typed error: the prefix that landed is a torn frame the
/// next open repairs, so the caller must *not* retry the remainder.
fn write_frame(file: &mut dyn VfsFile, path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let n = file.write(bytes).map_err(|e| DurableError::io(path, "write", &e))?;
    if n < bytes.len() {
        return Err(DurableError::Io {
            path: path.display().to_string(),
            op: "write",
            message: format!("short write: {n} of {} byte(s) reached disk", bytes.len()),
        });
    }
    Ok(())
}

pub(crate) fn encode_record(kind: u8, seq: u64, data: &[u8]) -> Vec<u8> {
    let mut payload = Enc::new();
    payload.u8(kind).u64(seq);
    let mut payload = payload.into_bytes();
    payload.extend_from_slice(data);
    let mut frame = Enc::new();
    frame.u32(payload.len() as u32).u32(crc32(&payload));
    let mut frame = frame.into_bytes();
    frame.extend_from_slice(&payload);
    frame
}

/// Forward-scans `bytes[start..]` as record frames, handing each frame
/// whose CRC verifies to `visit` and stopping at the first damage site.
/// Returns the defect that stopped the scan (at most one — framing is
/// untrustworthy past the first bad frame) and the byte offset of the end
/// of the last whole record. Allocates only to describe damage.
///
/// The one copy of the framing rules: [`Journal::open`] truncates to the
/// returned offset, and [`Journal::scan`] checks bytes read once by its
/// caller (the scrubber, and [`Journal::verify`]).
pub(crate) fn scan_frames<'a>(
    bytes: &'a [u8],
    start: usize,
    origin: &str,
    mut visit: impl FnMut(Frame<'a>),
) -> (Option<Defect>, usize) {
    let mut pos = start; // end of last whole record
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return (None, pos);
        }
        let torn = || Defect::TornTail {
            path: origin.to_string(),
            offset: pos as u64,
            lost: remaining as u64,
        };
        if remaining < 8 {
            return (Some(torn()), pos);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if !(9..=MAX_RECORD_LEN).contains(&len) {
            let defect = Defect::CorruptRecord {
                path: origin.to_string(),
                offset: pos as u64,
                detail: format!("implausible record length {len}"),
            };
            return (Some(defect), pos);
        }
        let len = len as usize;
        if remaining - 8 < len {
            return (Some(torn()), pos);
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            let defect = Defect::CorruptRecord {
                path: origin.to_string(),
                offset: pos as u64,
                detail: "payload CRC mismatch".into(),
            };
            return (Some(defect), pos);
        }
        let mut dec = Dec::new(payload);
        let kind = dec.u8().expect("length checked above");
        let seq = dec.u64().expect("length checked above");
        visit(Frame { kind, seq, data: &payload[9..] });
        pos += 8 + len;
    }
}

/// Checks a journal header. The header carries no CRC, so every value no
/// build writes is refused: a version-0 header can only be damage, and
/// accepting it would let a rotted copy scan clean.
fn check_header(bytes: &[u8], origin: &str) -> Result<(), DurableError> {
    if bytes.len() < HEADER_LEN as usize || &bytes[..4] != JOURNAL_MAGIC {
        return Err(DurableError::Format {
            path: origin.to_string(),
            detail: "journal header magic mismatch (expected \"EMOJ\")".into(),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 {
        return Err(DurableError::Format {
            path: origin.to_string(),
            detail: "journal header version 0 (no format writes it)".into(),
        });
    }
    if version > JOURNAL_VERSION {
        return Err(DurableError::Version {
            path: origin.to_string(),
            found: version,
            supported: JOURNAL_VERSION,
        });
    }
    Ok(())
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating any existing file, and
    /// syncs the header. Writes go straight to the OS filesystem; use
    /// [`Journal::create_with`] to route them through an injectable [`Vfs`].
    pub fn create(path: &Path) -> Result<Journal, DurableError> {
        Journal::create_with(path, &OsVfs)
    }

    /// [`Journal::create`] with every durable byte routed through `vfs`.
    pub fn create_with(path: &Path, vfs: &dyn Vfs) -> Result<Journal, DurableError> {
        let mut file = vfs.open(path, true).map_err(|e| DurableError::io(path, "open", &e))?;
        let mut header = Enc::new();
        header.u16(JOURNAL_VERSION);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&header.into_bytes());
        write_frame(file.as_mut(), path, &bytes)?;
        let stalled = file.fsync().map_err(|e| DurableError::io(path, "fsync", &e))?;
        Ok(Journal { path: path.to_path_buf(), file, poisoned: None, fail_fsync: false, stalled })
    }

    /// Opens (or creates) the journal at `path`, replays every committed
    /// record, and repairs a damaged tail.
    ///
    /// Returns the handle, the committed records in append order, and the
    /// defects repaired along the way (torn tail, corrupt record). The file
    /// is physically truncated back to the last committed record so the
    /// next append extends a clean tail.
    ///
    /// # Errors
    ///
    /// [`DurableError::Format`] if the header magic is wrong (the file is
    /// not a journal) or its version is 0 (no format writes it, so the
    /// header is damaged), [`DurableError::Version`] if it was written by a
    /// newer format, [`DurableError::Io`] on OS failures. Damage *after* a
    /// valid header is repaired, not fatal.
    pub fn open(path: &Path) -> Result<(Journal, Vec<Record>, Vec<Defect>), DurableError> {
        Journal::open_with(path, &OsVfs)
    }

    /// [`Journal::open`] with every durable byte routed through `vfs`.
    pub fn open_with(
        path: &Path,
        vfs: &dyn Vfs,
    ) -> Result<(Journal, Vec<Record>, Vec<Defect>), DurableError> {
        if !path.exists() {
            return Ok((Journal::create_with(path, vfs)?, Vec::new(), Vec::new()));
        }
        let bytes = vfs.read(path).map_err(|e| DurableError::io(path, "read", &e))?;
        let origin = path.display().to_string();
        check_header(&bytes, &origin)?;
        let mut records = Vec::new();
        let (defect, committed) =
            scan_frames(&bytes, HEADER_LEN as usize, &origin, |f| records.push(f.to_record()));

        let mut file = vfs.open(path, false).map_err(|e| DurableError::io(path, "open", &e))?;
        let mut stalled = 0;
        if committed < bytes.len() {
            // Damage found: drop everything after the last committed record
            // so the next append starts from a verified tail. Records after
            // a corrupt one are unreachable by the forward scan — framing is
            // untrustworthy past the first bad CRC — and are discarded with it.
            file.truncate(committed as u64).map_err(|e| DurableError::io(path, "truncate", &e))?;
            stalled = file.fsync().map_err(|e| DurableError::io(path, "fsync", &e))?;
        }
        Ok((
            Journal { path: path.to_path_buf(), file, poisoned: None, fail_fsync: false, stalled },
            records,
            defect.into_iter().collect(),
        ))
    }

    /// Read-only verification: reads the journal at `path` once, replays
    /// every committed record and reports damage *without* repairing the
    /// file or taking a write handle — [`Journal::scan`] over the file's
    /// bytes, keeping owned records. Safe to run against a journal another
    /// handle is appending to (the scan sees a committed prefix; a
    /// concurrent half-written tail shows up as a harmless
    /// [`Defect::TornTail`]).
    ///
    /// # Errors
    ///
    /// Same header errors as [`Journal::open`], plus [`DurableError::Io`]
    /// if the file cannot be read (a missing file is an `Io` error here,
    /// not an empty journal — verification targets files that must exist).
    pub fn verify(path: &Path) -> Result<(Vec<Record>, Vec<Defect>), DurableError> {
        Journal::verify_with(path, &OsVfs)
    }

    /// [`Journal::verify`] reading through `vfs`.
    pub fn verify_with(
        path: &Path,
        vfs: &dyn Vfs,
    ) -> Result<(Vec<Record>, Vec<Defect>), DurableError> {
        let bytes = vfs.read(path).map_err(|e| DurableError::io(path, "read", &e))?;
        let mut records = Vec::new();
        let defects =
            Journal::scan(&bytes, &path.display().to_string(), |f| records.push(f.to_record()))?;
        Ok((records, defects))
    }

    /// Checks the header of journal bytes the caller has already read and
    /// CRC-verifies every frame, handing each committed one to `visit` as
    /// a borrowed [`Frame`]. Returns the damage found (at most one defect,
    /// naming `origin`). A check that keeps no records allocates nothing.
    ///
    /// This is the scrubber's primitive: it reads each journal once, and a
    /// byte-identical replica is verified by one scan of the shared bytes.
    ///
    /// # Errors
    ///
    /// The header errors of [`Journal::open`]: [`DurableError::Format`] for
    /// a damaged header, [`DurableError::Version`] for a newer format.
    pub fn scan<'a>(
        bytes: &'a [u8],
        origin: &str,
        visit: impl FnMut(Frame<'a>),
    ) -> Result<Vec<Defect>, DurableError> {
        check_header(bytes, origin)?;
        let (defect, _committed) = scan_frames(bytes, HEADER_LEN as usize, origin, visit);
        Ok(defect.into_iter().collect())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed fsync has latched this handle (see
    /// [`DurableError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Drains the fsync stall ticks accumulated since the last call. A
    /// healthy disk always reports 0; an injected [`crate::FaultVfs`] stall
    /// surfaces here, where the durability gauge samples it per append.
    pub fn take_stalled_ticks(&mut self) -> u64 {
        std::mem::take(&mut self.stalled)
    }

    /// Arms a one-shot injected fsync failure: the next [`Journal::append`]
    /// writes its frame bytes but the sync "fails", latching the handle
    /// exactly as a real fsync error would. Models an `EIO` from a dying
    /// disk while the process survives.
    pub fn inject_fsync_failure(&mut self) {
        self.fail_fsync = true;
    }

    fn check_poison(&self) -> Result<(), DurableError> {
        match &self.poisoned {
            Some(cause) => Err(DurableError::Poisoned {
                path: self.path.display().to_string(),
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Appends a record and syncs it to disk. On return the record is
    /// committed: a crash immediately after cannot lose it.
    ///
    /// # Errors
    ///
    /// [`DurableError::Poisoned`] if an earlier fsync failed — after a
    /// failed sync the on-disk tail is unknowable, so the handle refuses
    /// all further appends; reopen the file to re-verify the tail. A fsync
    /// failure on *this* call latches the handle and returns the error.
    pub fn append(&mut self, kind: u8, seq: u64, data: &[u8]) -> Result<(), DurableError> {
        self.check_poison()?;
        let frame = encode_record(kind, seq, data);
        write_frame(self.file.as_mut(), &self.path, &frame)?;
        if self.fail_fsync {
            self.fail_fsync = false;
            let cause = "injected fsync failure".to_string();
            self.poisoned = Some(cause.clone());
            return Err(DurableError::Poisoned {
                path: self.path.display().to_string(),
                cause,
            });
        }
        match self.file.fsync() {
            Ok(ticks) => self.stalled += ticks,
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(DurableError::io(&self.path, "fsync", &e));
            }
        }
        Ok(())
    }

    /// Writes only the first `frac` of the record's frame bytes, then syncs —
    /// the on-disk state a `SIGKILL` mid-`write(2)` leaves behind. The crash
    /// injector calls this and then reports [`DurableError::Injected`]; the
    /// next [`Journal::open`] must repair the tear.
    pub fn append_torn(
        &mut self,
        kind: u8,
        seq: u64,
        data: &[u8],
        frac: f64,
    ) -> Result<(), DurableError> {
        self.check_poison()?;
        let frame = encode_record(kind, seq, data);
        let keep = ((frame.len() as f64) * frac.clamp(0.0, 1.0)) as usize;
        let keep = keep.min(frame.len().saturating_sub(1)); // always torn, never whole
        self.file
            .write(&frame[..keep])
            .map_err(|e| DurableError::io(&self.path, "write", &e))?;
        let ticks =
            self.file.fsync().map_err(|e| DurableError::io(&self.path, "fsync", &e))?;
        self.stalled += ticks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emoleak-journal-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = scratch("replay");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"alpha").unwrap();
        j.append(1, 1, b"beta").unwrap();
        j.append(2, 2, b"").unwrap();
        drop(j);
        let (_j, records, defects) = Journal::open(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(
            records,
            vec![
                Record { kind: 1, seq: 0, data: b"alpha".to_vec() },
                Record { kind: 1, seq: 1, data: b"beta".to_vec() },
                Record { kind: 2, seq: 2, data: Vec::new() },
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_is_truncated_and_reported() {
        let dir = scratch("torn");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"kept").unwrap();
        j.append_torn(1, 1, b"lost to the crash", 0.5).unwrap();
        drop(j);
        let before = std::fs::metadata(&path).unwrap().len();
        let (mut j, records, defects) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].data, b"kept");
        assert!(
            matches!(defects.as_slice(), [Defect::TornTail { .. }]),
            "{defects:?}"
        );
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "tail must be physically truncated");
        // The repaired journal accepts appends and replays cleanly.
        j.append(1, 1, b"retry").unwrap();
        drop(j);
        let (_j, records, defects) = Journal::open(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].data, b"retry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_record_is_detected() {
        let dir = scratch("flip");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"first").unwrap();
        j.append(1, 1, b"second").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 3; // inside the second record's payload
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_j, records, defects) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 1, "only the intact prefix survives");
        assert!(
            matches!(defects.as_slice(), [Defect::CorruptRecord { .. }]),
            "{defects:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_format_error_and_future_version_is_version_error() {
        let dir = scratch("header");
        let bad_magic = dir.join("notes.txt");
        std::fs::write(&bad_magic, b"not a journal at all").unwrap();
        assert!(matches!(
            Journal::open(&bad_magic),
            Err(DurableError::Format { .. })
        ));
        // No format writes version 0: such a header is damage, not history.
        let v0 = dir.join("v0.log");
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&0u16.to_le_bytes());
        std::fs::write(&v0, &bytes).unwrap();
        assert!(matches!(Journal::verify(&v0), Err(DurableError::Format { .. })));
        let vnext = dir.join("future.log");
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(&vnext, &bytes).unwrap();
        match Journal::open(&vnext) {
            Err(DurableError::Version { found, supported, .. }) => {
                assert_eq!(found, JOURNAL_VERSION + 1);
                assert_eq!(supported, JOURNAL_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_is_read_only_and_reports_damage() {
        let dir = scratch("verify");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"kept").unwrap();
        j.append_torn(1, 1, b"half", 0.5).unwrap();
        drop(j);
        let before = std::fs::metadata(&path).unwrap().len();
        let (records, defects) = Journal::verify(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(defects.as_slice(), [Defect::TornTail { .. }]), "{defects:?}");
        // Verify must not repair: the torn tail stays on disk.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        // A missing file is an I/O error, not an empty journal.
        assert!(matches!(
            Journal::verify(&dir.join("absent.log")),
            Err(DurableError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_latches_the_handle() {
        let dir = scratch("poison");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"committed").unwrap();
        assert!(!j.is_poisoned());
        j.inject_fsync_failure();
        let err = j.append(1, 1, b"unsynced").unwrap_err();
        assert!(matches!(err, DurableError::Poisoned { .. }), "{err}");
        assert!(j.is_poisoned());
        // Latched: every later append is refused without touching the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let err = j.append(1, 2, b"refused").unwrap_err();
        assert!(matches!(err, DurableError::Poisoned { .. }), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        drop(j);
        // Reopen re-verifies the tail from disk: the unsynced record's bytes
        // did reach the file (only the sync failed in this injection), so
        // recovery keeps what verifies and the journal accepts appends again.
        let (mut j, records, _defects) = Journal::open(&path).unwrap();
        assert!(!records.is_empty());
        j.append(1, 9, b"after reopen").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn implausible_length_prefix_does_not_allocate() {
        let dir = scratch("hugelen");
        let path = dir.join("journal.log");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, 0, b"ok").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd len
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let (_j, records, defects) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(
            matches!(defects.as_slice(), [Defect::CorruptRecord { .. }]),
            "{defects:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
