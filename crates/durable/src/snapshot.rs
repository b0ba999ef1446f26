//! Checksummed snapshot and manifest containers.
//!
//! Snapshots (`snap-<seq>.bin`) hold a full serialized campaign state;
//! the manifest (`manifest.bin`) names the last snapshot that was written
//! completely. Both use the same self-verifying container:
//!
//! ```text
//! magic (4) | version u16 LE | payload_len u64 LE | crc u32 LE | payload
//! ```
//!
//! Verification order is deliberate: magic first ([`DurableError::Format`] —
//! the file is not ours), then version ([`DurableError::Version`] — written
//! by a future build), and only then length/CRC ([`DurableError::Corrupt`]).
//! A future-versioned file therefore gets the version error even when its
//! body would not checksum under today's rules.
//!
//! Containers are replaced only via [`write_atomic`](crate::write_atomic),
//! so a reader sees either the previous complete container or the new
//! one — but external damage (bit rot, manual truncation) is still caught
//! by the CRC.

use crate::atomic::write_atomic_with;
use crate::error::DurableError;
use crate::vfs::{OsVfs, Vfs};
use crate::wire::crc32;
use std::path::Path;

/// Container header length: magic + version + payload_len + crc.
const CONTAINER_HEADER_LEN: usize = 4 + 2 + 8 + 4;

/// Sanity cap on a container payload, mirroring the journal's record cap.
const MAX_PAYLOAD_LEN: u64 = 256 * 1024 * 1024;

/// Builds a self-verifying container around `payload`. Pure — the proptest
/// corruption suite drives this directly, no filesystem involved.
pub fn encode_container(magic: &[u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(CONTAINER_HEADER_LEN + payload.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Verifies a container and returns its payload. Pure inverse of
/// [`encode_container`]; `path` is only used to label errors (pass
/// `"<memory>"` for in-memory decodes).
///
/// # Errors
///
/// [`DurableError::Format`] on bad magic, [`DurableError::Version`] when
/// `version` exceeds `supported`, [`DurableError::Corrupt`] on any
/// length/CRC mismatch — truncation, trailing garbage, or flipped bits.
pub fn decode_container(
    magic: &[u8; 4],
    supported: u16,
    bytes: &[u8],
    path: &str,
) -> Result<Vec<u8>, DurableError> {
    let corrupt = |offset: usize, detail: String| DurableError::Corrupt {
        path: path.to_string(),
        offset: offset as u64,
        detail,
    };
    if bytes.len() < 6 {
        return Err(DurableError::Format {
            path: path.to_string(),
            detail: format!("{} byte(s) is too short for a container header", bytes.len()),
        });
    }
    if &bytes[..4] != magic {
        return Err(DurableError::Format {
            path: path.to_string(),
            detail: format!(
                "magic mismatch (expected {:?})",
                String::from_utf8_lossy(magic)
            ),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > supported {
        return Err(DurableError::Version {
            path: path.to_string(),
            found: version,
            supported,
        });
    }
    if bytes.len() < CONTAINER_HEADER_LEN {
        return Err(corrupt(bytes.len(), "truncated inside container header".into()));
    }
    let payload_len = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(corrupt(6, format!("implausible payload length {payload_len}")));
    }
    let body = &bytes[CONTAINER_HEADER_LEN..];
    if body.len() as u64 != payload_len {
        return Err(corrupt(
            CONTAINER_HEADER_LEN,
            format!("payload is {} byte(s), header says {payload_len}", body.len()),
        ));
    }
    if crc32(body) != crc {
        return Err(corrupt(CONTAINER_HEADER_LEN, "payload CRC mismatch".into()));
    }
    Ok(body.to_vec())
}

/// Reads and verifies the container file at `path`.
pub fn read_container(
    magic: &[u8; 4],
    supported: u16,
    path: &Path,
) -> Result<Vec<u8>, DurableError> {
    read_container_with(magic, supported, path, &OsVfs)
}

/// [`read_container`] reading through `vfs`.
pub fn read_container_with(
    magic: &[u8; 4],
    supported: u16,
    path: &Path,
    vfs: &dyn Vfs,
) -> Result<Vec<u8>, DurableError> {
    let bytes = vfs.read(path).map_err(|e| DurableError::io(path, "read", &e))?;
    decode_container(magic, supported, &bytes, &path.display().to_string())
}

/// Atomically replaces the container file at `path`.
pub fn write_container(
    magic: &[u8; 4],
    version: u16,
    path: &Path,
    payload: &[u8],
) -> Result<(), DurableError> {
    write_container_with(magic, version, path, payload, &OsVfs)
}

/// [`write_container`] with every durable byte routed through `vfs`.
pub fn write_container_with(
    magic: &[u8; 4],
    version: u16,
    path: &Path,
    payload: &[u8],
    vfs: &dyn Vfs,
) -> Result<(), DurableError> {
    write_atomic_with(path, &encode_container(magic, version, payload), vfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TSTC";

    #[test]
    fn round_trip() {
        let payload = b"campaign state bytes".to_vec();
        let bytes = encode_container(MAGIC, 1, &payload);
        assert_eq!(decode_container(MAGIC, 1, &bytes, "<memory>").unwrap(), payload);
        // Empty payloads are legal.
        let bytes = encode_container(MAGIC, 1, b"");
        assert_eq!(decode_container(MAGIC, 1, &bytes, "<memory>").unwrap(), b"");
    }

    #[test]
    fn error_precedence_magic_then_version_then_crc() {
        let bytes = encode_container(MAGIC, 1, b"payload");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_container(MAGIC, 1, &wrong_magic, "<memory>"),
            Err(DurableError::Format { .. })
        ));
        // Future version wins over a CRC that no longer matches.
        let mut future = bytes.clone();
        future[4] = 0xFF;
        future[20] ^= 0x01;
        assert!(matches!(
            decode_container(MAGIC, 1, &future, "<memory>"),
            Err(DurableError::Version { found: 0xFF, supported: 1, .. })
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        assert!(matches!(
            decode_container(MAGIC, 1, &flipped, "<memory>"),
            Err(DurableError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode_container(MAGIC, 1, b"0123456789");
        for cut in 0..bytes.len() {
            let err = decode_container(MAGIC, 1, &bytes[..cut], "<memory>").unwrap_err();
            assert!(
                matches!(err, DurableError::Format { .. } | DurableError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Trailing garbage is also a length mismatch, not silently ignored.
        let mut grown = bytes.clone();
        grown.push(0);
        assert!(matches!(
            decode_container(MAGIC, 1, &grown, "<memory>"),
            Err(DurableError::Corrupt { .. })
        ));
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir()
            .join(format!("emoleak-container-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-0.bin");
        write_container(MAGIC, 1, &path, b"state").unwrap();
        assert_eq!(read_container(MAGIC, 1, &path).unwrap(), b"state");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
