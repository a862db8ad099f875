//! Property tests for the compression substrate.

use proptest::prelude::*;
use scihadoop_compress::codec::HEADER_LEN;
use scihadoop_compress::{lz, BzipCodec, Codec, DeflateCodec, IdentityCodec, LzCodec};

fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(IdentityCodec),
        Box::new(DeflateCodec::new()),
        Box::new(BzipCodec::with_level(1)),
        Box::new(LzCodec),
    ]
}

/// The codecs that write the one codec frame.
fn framed_codecs() -> [Box<dyn Codec>; 3] {
    [
        Box::new(DeflateCodec::new()),
        Box::new(BzipCodec::with_level(1)),
        Box::new(LzCodec),
    ]
}

/// `(method, input)`: `unit` repeated to 1 KiB, which every
/// framed codec codes (method 1), and `len` seeded noise bytes, which
/// every one stores (method 0).
fn coded_and_stored(unit: &[u8], seed: u64, len: usize) -> [(u8, Vec<u8>); 2] {
    let coded = unit.iter().cycle().take(1024).copied().collect();
    let mut state = seed;
    let noise = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect();
    [(1, coded), (0, noise)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec round-trips arbitrary bytes.
    #[test]
    fn all_codecs_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        for codec in all_codecs() {
            let z = codec.compress(&data);
            prop_assert_eq!(
                codec.decompress(&z).unwrap(),
                data.clone(),
                "codec {}", codec.name()
            );
        }
    }

    /// Structured (repetitive) data must actually compress.
    #[test]
    fn repetitive_data_compresses(
        unit in proptest::collection::vec(any::<u8>(), 4..32),
        reps in 64usize..256,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        for codec in [
            Box::new(DeflateCodec::new()) as Box<dyn Codec>,
            Box::new(BzipCodec::with_level(1)),
            Box::new(LzCodec),
        ] {
            let z = codec.compress(&data);
            prop_assert!(
                z.len() < data.len() / 2,
                "{} produced {} from {}",
                codec.name(), z.len(), data.len()
            );
            prop_assert_eq!(codec.decompress(&z).unwrap(), data.clone());
        }
    }

    /// Multi-block bzip inputs (spanning several 100 kB blocks) roundtrip.
    #[test]
    fn bzip_multi_block_roundtrip(seed in any::<u64>()) {
        let mut state = seed | 1;
        let data: Vec<u8> = (0..250_000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 5 == 0 { (state >> 33) as u8 } else { b'#' }
            })
            .collect();
        let c = BzipCodec::with_level(1);
        let z = c.compress(&data);
        prop_assert_eq!(c.decompress(&z).unwrap(), data);
    }

    /// Compression is deterministic (same input → same bytes), which the
    /// engine's byte accounting relies on.
    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for codec in all_codecs() {
            prop_assert_eq!(codec.compress(&data), codec.compress(&data));
        }
    }

    /// The frame CRC catches every single-bit flip in any frame, stored
    /// or coded, of every framed codec: a flipped frame is an error,
    /// never the original bytes and never others.
    #[test]
    fn bit_flips_are_always_detected(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        seed in any::<u64>(),
        len in 0usize..2048,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        for codec in framed_codecs() {
            for (method, data) in coded_and_stored(&unit, seed, len) {
                let z = codec.compress(&data);
                prop_assert_eq!(z[4], method, "{} method", codec.name());
                let idx = ((z.len() as f64 - 1.0) * flip_frac) as usize;
                let mut bad = z.clone();
                bad[idx] ^= 1 << bit;
                prop_assert!(
                    codec.decompress(&bad).is_err(),
                    "{} method {}: flip at {}/{} went undetected",
                    codec.name(), method, idx, z.len()
                );
            }
        }
    }

    /// Truncating a frame of any framed codec anywhere errors (the
    /// header or CRC check fires); no truncation panics or returns bytes.
    #[test]
    fn truncation_is_always_detected(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        seed in any::<u64>(),
        len in 1usize..2048,
        cut_frac in 0.0f64..0.999,
    ) {
        for codec in framed_codecs() {
            for (method, data) in coded_and_stored(&unit, seed, len) {
                let z = codec.compress(&data);
                let cut = ((z.len() as f64) * cut_frac) as usize;
                prop_assert!(
                    codec.decompress(&z[..cut]).is_err(),
                    "{} method {}: cut at {}/{}",
                    codec.name(), method, cut, z.len()
                );
            }
        }
    }

    /// Feeding arbitrary bytes straight into the lz decoder never
    /// panics: it either errors or (for the rare accidentally-valid
    /// frame) returns without over-allocating.
    #[test]
    fn lz_decoder_survives_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz::decompress(&data);
    }

    /// The stored-mode escape bounds every frame of every framed codec:
    /// output never exceeds input + HEADER_LEN, even on incompressible
    /// input.
    #[test]
    fn frames_are_size_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in framed_codecs() {
            let z = codec.compress(&data);
            prop_assert!(z.len() <= data.len() + HEADER_LEN, "{}", codec.name());
        }
    }
}
