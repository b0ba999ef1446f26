//! Hand-rolled binary codec for durable records.
//!
//! The vendored `serde` stub is a no-op (see the golden-trace tests), so
//! every on-disk structure is encoded by hand through [`Enc`] / [`Dec`]:
//! little-endian fixed-width integers, `f64` as raw IEEE-754 bits (the
//! byte-identity contract forbids any round-trip through decimal), and
//! length-prefixed byte strings. [`crc32`] is the IEEE CRC-32 used by every
//! container to detect torn writes and bit flips. It is table-driven
//! (slice-by-8: eight 256-entry tables built at compile time, eight input
//! bytes per step) and yields exactly the values of the bit-at-a-time
//! definition, which the tests keep as their oracle.

/// The IEEE CRC-32 polynomial (zlib/PNG), in reflected form.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight bit steps, and `CRC_TABLES[k][b]` is
/// `CRC_TABLES[k - 1][b]` advanced by one more zero byte — the
/// contribution of a byte followed by `k` more bytes of its 8-byte block.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the IEEE CRC-32 (the zlib/PNG polynomial, reflected) of `data`.
///
/// Table-driven, slice-by-8: each step folds eight input bytes into the
/// register with eight table lookups, and the tail of fewer than eight
/// bytes takes one lookup per byte. Allocates nothing.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The bit-at-a-time definition of [`crc32`]: the oracle the table-driven
/// version is tested against.
#[cfg(test)]
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// An append-only little-endian encoder.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its raw bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// A decode failure: the buffer does not hold what the reader expected.
/// Callers map this into [`DurableError::Corrupt`](crate::DurableError)
/// with file context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset the decoder stopped at.
    pub offset: u64,
    /// What the decoder expected there.
    pub detail: String,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "decode failed at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for WireError {}

/// A checked little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// The current read offset.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn short(&self, what: &str, need: usize) -> WireError {
        WireError {
            offset: self.offset(),
            detail: format!("{what} needs {need} byte(s), {} left", self.remaining()),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.short(what, n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| WireError {
            offset: self.offset(),
            detail: format!("byte-string length {len} overflows usize"),
        })?;
        if len > self.remaining() {
            return Err(self.short("byte string", len));
        }
        self.take(len, "byte string")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let offset = self.offset();
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError {
            offset,
            detail: "byte string is not valid UTF-8".into(),
        })
    }

    /// Asserts the buffer was fully consumed (trailing garbage is damage).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError {
                offset: self.offset(),
                detail: format!("{} unexpected trailing byte(s)", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        for crc in [crc32, crc32_bitwise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-driven CRC equals the bitwise oracle on random data,
        /// at lengths 0–4096 and start offsets 0–7 into a larger buffer.
        #[test]
        fn crc32_equals_the_bitwise_oracle(
            raw in prop::collection::vec(0u32..256, 4096 + 8),
            start in 0usize..8,
            len in 0usize..=4096,
        ) {
            let buf: Vec<u8> = raw.iter().map(|b| *b as u8).collect();
            let data = &buf[start..start + len];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }
    }

    /// Every start offset 0–7 against every length up to 56: each
    /// alignment meets each tail length (0–7 bytes past the last 8-byte
    /// block), with and without whole blocks before it.
    #[test]
    fn crc32_equals_the_bitwise_oracle_at_every_short_length_and_alignment() {
        let buf: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for start in 0..8 {
            for end in start..buf.len() {
                assert_eq!(crc32(&buf[start..end]), crc32_bitwise(&buf[start..end]));
            }
        }
    }

    #[test]
    fn crc32_catches_single_bit_flips() {
        let data = b"write-ahead journal record payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn round_trip_all_types() {
        let mut enc = Enc::new();
        enc.u8(7)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX - 1)
            .f64(-0.0)
            .f64(f64::NAN)
            .bytes(b"abc")
            .str("caf\u{e9}");
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.f64().unwrap().is_nan());
        assert_eq!(dec.bytes().unwrap(), b"abc");
        assert_eq!(dec.str().unwrap(), "caf\u{e9}");
        dec.finish().unwrap();
    }

    #[test]
    fn short_reads_are_typed_errors_not_panics() {
        let mut dec = Dec::new(&[1, 2]);
        let err = dec.u64().unwrap_err();
        assert!(err.detail.contains("u64"), "{err}");
        // A length prefix larger than the buffer must not allocate or panic.
        let mut enc = Enc::new();
        enc.u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.bytes().is_err());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut enc = Enc::new();
        enc.u8(1);
        let mut bytes = enc.into_bytes();
        bytes.push(0xFF);
        let mut dec = Dec::new(&bytes);
        dec.u8().unwrap();
        assert!(dec.finish().is_err());
    }
}
