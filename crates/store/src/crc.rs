//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum every durable artifact of the store carries: segment
//! pages, the segment preamble/schema/page-table, journal records,
//! and the catalog manifest.
//!
//! Dependency-free by construction (the build environment has no
//! registry access): the tables are computed at compile time.
//!
//! The kernel folds four lanes at once: a 1 KiB block is four
//! independent 256-byte lanes, each folded slice-by-8 (eight input
//! bytes per step, eight independent table lookups), one step of each
//! lane per round so that no lane waits on another's lookups. The
//! lanes' registers are then joined by "shift by one lane" tables — the
//! register after 256 zero bytes is linear in the register before them
//! — lane 0's register shifted past lane 1 and xored in, and so on.
//! What follows the last whole block is folded slice-by-8, then byte by
//! byte. Same polynomial, same values as the byte-at-a-time loop (kept
//! under `#[cfg(test)]` as the oracle), so nothing on disk changes;
//! safe, portable code, no intrinsics.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;
/// Bytes in one lane, and in one block of four lanes.
const LANE: usize = 256;
const BLOCK: usize = 4 * LANE;

/// `TABLES[k][b]` for `k < 8`: the register after byte `b` and then `k`
/// zero bytes, slice-by-8's tables. `TABLES[8 + j][b]`: after byte `b`
/// and then `LANE - 1 - j` zero bytes — register `b << 8j` shifted past
/// one lane.
const fn build_tables() -> [[u32; 256]; 12] {
    let mut tables = [[0u32; 256]; 12];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut crc = tables[0][b];
        let mut zeros = 0;
        while zeros < LANE {
            if zeros < 8 {
                tables[zeros][b] = crc;
            } else if zeros >= LANE - 4 {
                tables[8 + LANE - 1 - zeros][b] = crc;
            }
            crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
            zeros += 1;
        }
        b += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 12] = build_tables();

/// Fold eight bytes into the register: eight independent lookups.
#[inline(always)]
fn fold8(crc: u32, word: &[u8; 8]) -> u32 {
    let x = u64::from_le_bytes(*word) ^ u64::from(crc);
    (0..8).fold(0, |acc, i| {
        acc ^ TABLES[7 - i][(x >> (8 * i)) as usize & 0xFF]
    })
}

/// The register after one lane of zero bytes.
#[inline(always)]
fn shift_lane(crc: u32) -> u32 {
    (0..4).fold(0, |acc, j| {
        acc ^ TABLES[8 + j][(crc >> (8 * j)) as usize & 0xFF]
    })
}

/// CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (blocks, rest) = bytes.as_chunks::<BLOCK>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        let mut lanes = [crc, 0, 0, 0];
        for i in 0..LANE / 8 {
            lanes = [0, 1, 2, 3].map(|j| fold8(lanes[j], &words[j * LANE / 8 + i]));
        }
        crc = lanes[1..]
            .iter()
            .fold(lanes[0], |crc, &lane| shift_lane(crc) ^ lane);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        crc = fold8(crc, word);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` once was — the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The kernel ≡ byte-at-a-time for every length 0..=4100 (a
        /// sliding window over one random buffer hits each) and every
        /// position of the slice start within an 8-byte word.
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

    /// Every length within 16 bytes of a block boundary, one to four
    /// blocks, at every start within an 8-byte word: where the lanes
    /// join and where the slice-by-8 tail takes over.
    #[test]
    fn lengths_around_every_block_boundary_match_bytewise() {
        let data: Vec<u8> = (0..4 * BLOCK as u32 + 24)
            .map(|i| (i.wrapping_mul(40_503) >> 5) as u8 ^ 0xA5)
            .collect();
        for blocks in 1..=4 {
            for len in blocks * BLOCK - 16..=blocks * BLOCK + 16 {
                for start in 0..8 {
                    let window = &data[start..start + len];
                    assert_eq!(
                        crc32(window),
                        crc32_bytewise(window),
                        "start {start} len {len}"
                    );
                }
            }
        }
    }

    /// The pages of a 10 000-tuple generated segment, as written with
    /// the default page size and read back: each page's bytes.
    #[test]
    fn the_pages_of_a_generated_segment_match_bytewise() {
        use evirel_workload::generator::{generate, GeneratorConfig};
        let config = GeneratorConfig {
            tuples: 10_000,
            ..Default::default()
        };
        let rel = generate("ga", &config).unwrap();
        let dir = crate::test_dir::TestDir::new("crc-pages");
        let path = dir.join("ga.seg");
        crate::write_segment(&rel, &path, crate::DEFAULT_PAGE_SIZE).unwrap();
        let segment = crate::Segment::open(path.as_path()).unwrap();
        let mut lengths = std::collections::BTreeSet::new();
        for page in 0..segment.page_count() {
            let bytes = segment.read_page(page).unwrap();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "page {page}");
            lengths.insert(bytes.len());
        }
        assert!(
            segment.page_count() > 100 && lengths.len() > 10,
            "{lengths:?}"
        );
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
