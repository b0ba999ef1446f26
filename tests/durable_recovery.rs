//! Recovery-surface tests for the durability layer's versioning contract.
//!
//! The golden fixture `tests/golden/durable_vnext_header.bin` is a journal
//! header written by a hypothetical *future* format version (v2). This
//! build must refuse it with a typed [`DurableError::Version`] — not parse
//! it, not panic — because a newer format may have changed record layout in
//! ways the checksum cannot reveal. The fixture is committed so the refusal
//! is proven against stable on-disk bytes, not bytes this build produced.

use emoleak::durable::{
    decode_container, encode_container, DurableError, Journal, JOURNAL_MAGIC, JOURNAL_VERSION,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use std::path::PathBuf;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("emoleak-durable-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_fixture_bytes_are_the_vnext_header() {
    // Guards the fixture itself: magic "EMOJ" followed by version 2 LE.
    // If this fails, the fixture file was altered — regenerate it, don't
    // bend the test.
    let fixture = golden("durable_vnext_header.bin");
    assert_eq!(&fixture[..4], JOURNAL_MAGIC);
    assert_eq!(fixture, [0x45, 0x4D, 0x4F, 0x4A, 0x02, 0x00]);
    assert_eq!(
        u16::from_le_bytes([fixture[4], fixture[5]]),
        JOURNAL_VERSION + 1,
        "fixture must stay one version ahead of the current format"
    );
}

#[test]
fn vnext_journal_header_is_refused_with_typed_version_error() {
    let dir = scratch("vnext");
    let path = dir.join("journal.log");
    std::fs::write(&path, golden("durable_vnext_header.bin")).expect("write fixture");
    match Journal::open(&path) {
        Err(DurableError::Version { found, supported, .. }) => {
            assert_eq!(found, JOURNAL_VERSION + 1);
            assert_eq!(supported, JOURNAL_VERSION);
        }
        Err(e) => panic!("expected DurableError::Version, got {e}"),
        Ok(_) => panic!("a future-version journal must not open"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn foreign_magic_is_refused_with_typed_format_error() {
    let dir = scratch("magic");
    let path = dir.join("journal.log");
    // Same length and version bytes as a valid header, wrong magic: this is
    // some other program's file, not a damaged journal.
    std::fs::write(&path, b"EMOX\x01\x00").expect("write bogus header");
    match Journal::open(&path) {
        Err(DurableError::Format { .. }) => {}
        Err(e) => panic!("expected DurableError::Format, got {e}"),
        Ok(_) => panic!("a foreign file must not open as a journal"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn vnext_snapshot_container_is_refused_with_typed_version_error() {
    let encoded = encode_container(SNAPSHOT_MAGIC, SNAPSHOT_VERSION + 1, b"future payload");
    match decode_container(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &encoded, "snap-test.bin") {
        Err(DurableError::Version { found, supported, path }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
            assert_eq!(path, "snap-test.bin");
        }
        Err(e) => panic!("expected DurableError::Version, got {e}"),
        Ok(_) => panic!("a future-version container must not decode"),
    }
}
