//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum every durable artifact of the store carries: segment
//! pages, the segment preamble/schema/page-table, journal records,
//! and the catalog manifest.
//!
//! Dependency-free by construction (the build environment has no
//! registry access): the tables are computed at compile time.
//!
//! The kernel is slice-by-8: eight 256-entry tables, `TABLES[k][b]`
//! being the CRC of byte `b` followed by `k` zero bytes, fold eight
//! input bytes per step with eight independent lookups instead of
//! eight dependent ones. Same polynomial, same values as the
//! byte-at-a-time loop (kept under `#[cfg(test)]` as the oracle) — a
//! page read verifies about four times faster, and nothing on disk
//! changes.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more trailing zero byte per table.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` used to be — the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Slice-by-8 ≡ byte-at-a-time for every length 0..=4100
        /// (a sliding window over one random buffer hits each) and
        /// every position of the slice start within an 8-byte word.
        #[test]
        fn slice_by_8_matches_bytewise(
            data in proptest::collection::vec(0u8..=255, 4108..4109),
            stride in 1usize..64,
        ) {
            for start in 0..8 {
                let mut len = 0;
                while len <= 4100 {
                    let window = &data[start..start + len];
                    prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {} len {}", start, len);
                    len += if len < 72 { 1 } else { stride };
                }
                let window = &data[start..start + 4100];
                prop_assert_eq!(crc32(window), crc32_bytewise(window));
            }
        }
    }

    /// Every length 0..=4100, exhaustively, on one fixed buffer.
    #[test]
    fn every_length_matches_bytewise() {
        let data: Vec<u8> = (0..4100u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
            let tail = &data[data.len() - len..];
            assert_eq!(crc32(tail), crc32_bytewise(tail), "tail len {len}");
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = b"evirel durable segment page".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
