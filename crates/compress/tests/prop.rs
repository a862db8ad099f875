//! Property tests for the compression substrate.

use proptest::prelude::*;
use scihadoop_compress::{lz, BzipCodec, Codec, DeflateCodec, IdentityCodec, LzCodec};

fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(IdentityCodec),
        Box::new(DeflateCodec::new()),
        Box::new(DeflateCodec::with_chain(4)),
        Box::new(BzipCodec::with_level(1)),
        Box::new(LzCodec),
    ]
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

    /// Truncating a compressed stream anywhere must error, never panic or
    /// return wrong data silently (except trivially-empty prefix cases).
    #[test]
    fn truncation_never_panics(
        data in proptest::collection::vec(any::<u8>(), 32..512),
        cut_frac in 0.0f64..0.99,
    ) {
        for codec in all_codecs() {
            if codec.name() == "identity" {
                continue; // identity is documented as integrity-free
            }
            let z = codec.compress(&data);
            let cut = ((z.len() as f64) * cut_frac) as usize;
            if let Ok(out) = codec.decompress(&z[..cut]) {
                prop_assert_eq!(out, data.clone(), "codec {}", codec.name());
            }
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

    /// The lz frame's payload CRC catches every single-bit flip in any
    /// frame (stored or tokenized) before decoding returns bytes — the
    /// property the shuffle wire and spill path rely on. A flip that
    /// slips past would have to leave the CRC, the structural checks,
    /// *and* the decoded output all consistent; none may.
    #[test]
    fn lz_bit_flips_never_return_wrong_data(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..96,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let z = lz::compress(&data);
        let idx = ((z.len() as f64 - 1.0) * flip_frac) as usize;
        let mut bad = z.clone();
        bad[idx] ^= 1 << bit;
        if let Ok(out) = lz::decompress(&bad) {
            prop_assert_eq!(out, data, "flip at {}/{} went undetected", idx, z.len());
        }
    }

    /// Truncating an lz frame anywhere errors (the CRC or a structural
    /// check fires); no truncation panics or returns bytes.
    #[test]
    fn lz_truncation_always_detected(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cut_frac in 0.0f64..0.999,
    ) {
        let z = lz::compress(&data);
        let cut = ((z.len() as f64) * cut_frac) as usize;
        prop_assert!(lz::decompress(&z[..cut]).is_err(), "cut at {}/{}", cut, z.len());
    }

    /// Feeding arbitrary bytes straight into the lz decoder never
    /// panics: it either errors or (for the rare accidentally-valid
    /// frame) returns without over-allocating.
    #[test]
    fn lz_decoder_survives_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz::decompress(&data);
    }

    /// The stored-mode escape bounds every frame: output never exceeds
    /// input + HEADER_LEN, even on incompressible input.
    #[test]
    fn lz_frames_are_size_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let z = lz::compress(&data);
        prop_assert!(z.len() <= data.len() + lz::HEADER_LEN);
    }
}
