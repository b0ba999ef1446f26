//! Crash-safe durability for EmoLeak campaigns and services.
//!
//! Long multi-corpus campaigns (Tables III–VII) and the streaming service
//! must survive being killed — by the OS, the scheduler, or a chaos
//! harness — without losing committed work or ever serving corrupt data.
//! This crate provides the whole stack:
//!
//! - [`write_atomic`] — torn-file-proof replacement for `std::fs::write`
//!   (temp file + fsync + rename + directory fsync);
//! - [`Journal`] — a write-ahead log of length-prefixed, CRC32-checksummed,
//!   versioned records with append + fsync commit semantics and
//!   truncate-to-last-valid recovery;
//! - [`CheckpointStore`] — snapshot + manifest + journal under one
//!   directory, with a typed recovery chain (manifest → named snapshot →
//!   newest valid snapshot → fresh) and seeded [`CrashPlan`] kill points;
//! - [`run_resumable`] — chunked campaign execution that journals each
//!   completed unit and resumes from the recovered cursor, byte-identical
//!   to an uninterrupted run thanks to the `emoleak-exec` per-index seed
//!   derivation.
//!
//! Failures are always typed: [`DurableError`] for fatal conditions,
//! [`Defect`] for damage that recovery detected *and repaired*. Nothing in
//! this crate panics on corrupt input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod campaign;
pub mod error;
pub mod journal;
pub mod ship;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wire;

/// Current journal format version (header field in `journal.log`).
pub const JOURNAL_VERSION: u16 = 1;
/// Current snapshot container version (`snap-<n>.bin`).
pub const SNAPSHOT_VERSION: u16 = 1;
/// Current manifest container version (`manifest.bin`).
pub const MANIFEST_VERSION: u16 = 1;

pub use atomic::{temp_path, write_atomic, write_atomic_with};
pub use campaign::{
    run_resumable, CampaignError, CampaignSpec, CampaignState, Outcome, RunOptions, REC_UNIT,
};
pub use error::{Defect, DurableError};
pub use journal::{Frame, Journal, Record, JOURNAL_MAGIC};
pub use ship::{compare_streams, rebuild_journal_with, StreamDiff};
pub use snapshot::{
    decode_container, encode_container, read_container, read_container_with, write_container,
    write_container_with,
};
pub use store::{
    journal_path, manifest_path, snapshot_path, CheckpointStore, CrashKind, CrashPlan, Opened,
    MANIFEST_MAGIC, SNAPSHOT_MAGIC,
};
pub use vfs::{FaultPlan, FaultVfs, OsVfs, Vfs, VfsFile};
pub use wire::{crc32, Dec, Enc, WireError};
