//! Corruption property suite: malformed segment bytes must surface as
//! `Err`, never as a panic — and with the CRC trailer, never as silently
//! wrong records. Runs in debug CI (overflow checks on) and again in
//! release.

use proptest::prelude::*;
use scihadoop_compress::{Codec, IdentityCodec};
use scihadoop_mapreduce::{Framing, IFileWriter, MrError, RawSegment};
use std::sync::Arc;

/// Build a segment in any of the three on-disk formats. v3 uses a tiny
/// block budget so even small record sets span several blocks (block
/// headers and per-block CRCs both get corrupted bits).
fn build_segment(pairs: &[(Vec<u8>, Vec<u8>)], framing: Framing, version: u8) -> Vec<u8> {
    let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
    let mut w = match version {
        1 => IFileWriter::without_trailer(framing, codec),
        2 => IFileWriter::new(framing, codec),
        3 => IFileWriter::v3_with_budget(framing, codec, 64),
        _ => unreachable!("version selector out of range"),
    };
    for (k, v) in pairs {
        w.append(k, v);
    }
    w.close().data
}

fn framing_of(selector: bool) -> Framing {
    if selector {
        Framing::SequenceFile
    } else {
        Framing::IFile
    }
}

/// Walk every record (format-aware: flat cursor or block decode);
/// returns `Err` on the first parse failure.
fn read_all(data: &[u8]) -> Result<usize, MrError> {
    let seg = RawSegment::open(data, &IdentityCodec)?;
    let mut n = 0usize;
    seg.for_each_record(|_k, _v| n += 1)?;
    Ok(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bit_flips_with_trailer_always_error(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24),
             proptest::collection::vec(any::<u8>(), 0..24)),
            0..16,
        ),
        seq in any::<bool>(),
        version in 2u8..4,
        bit_frac in 0.0f64..1.0,
    ) {
        let data = build_segment(&pairs, framing_of(seq), version);
        let bit = ((data.len() as f64 * 8.0 - 1.0) * bit_frac) as usize;
        let mut corrupt = data.clone();
        corrupt[bit / 8] ^= 1u8 << (bit % 8);
        prop_assert!(
            read_all(&corrupt).is_err(),
            "bit flip at {} undetected in {}-byte segment", bit, data.len()
        );
    }

    #[test]
    fn truncations_with_trailer_always_error(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24),
             proptest::collection::vec(any::<u8>(), 0..24)),
            0..16,
        ),
        seq in any::<bool>(),
        version in 2u8..4,
        keep_frac in 0.0f64..1.0,
    ) {
        let data = build_segment(&pairs, framing_of(seq), version);
        let keep = ((data.len() - 1) as f64 * keep_frac) as usize;
        prop_assert!(
            read_all(&data[..keep]).is_err(),
            "truncation to {}/{} bytes undetected", keep, data.len()
        );
    }

    #[test]
    fn corrupted_untrailed_segments_never_panic(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24),
             proptest::collection::vec(any::<u8>(), 0..24)),
            0..16,
        ),
        seq in any::<bool>(),
        truncate in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        // Without the CRC trailer a payload flip can go undetected (that
        // is the point of the trailer); the parser's own guarantee is
        // weaker: structured failure or structurally valid records,
        // never a panic, never an out-of-bounds record.
        let data = build_segment(&pairs, framing_of(seq), 1);
        let corrupt = if truncate {
            let keep = ((data.len() - 1) as f64 * frac) as usize;
            data[..keep].to_vec()
        } else {
            let bit = ((data.len() as f64 * 8.0 - 1.0) * frac) as usize;
            let mut c = data.clone();
            c[bit / 8] ^= 1u8 << (bit % 8);
            c
        };
        if let Ok(n) = read_all(&corrupt) {
            // Parsed records can be at most... anything structurally
            // consistent; the invariant proven here is absence of panics
            // plus bounded slices (read_all walked them all).
            prop_assert!(n <= corrupt.len());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = read_all(&data);
        // Same bytes behind a valid plain header: exercises the cursor
        // (vint decoding, record-length validation) instead of stopping
        // at the header check.
        let mut framed = vec![b'S', b'H', b'I', b'F', 1, 0];
        framed.extend_from_slice(&data);
        let _ = read_all(&framed);
        let mut framed_seq = vec![b'S', b'H', b'I', b'F', 1, 1];
        framed_seq.extend_from_slice(&data);
        let _ = read_all(&framed_seq);
        // And behind a v3 header: exercises the trailer check, the block
        // header walk, and block decoding on garbage.
        let mut framed_v3 = vec![b'S', b'H', b'I', b'F', 3, 0];
        framed_v3.extend_from_slice(&data);
        let _ = read_all(&framed_v3);
    }

    #[test]
    fn fault_plan_corruptions_with_trailer_always_error(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..24),
             proptest::collection::vec(any::<u8>(), 0..24)),
            1..16,
        ),
        seq in any::<bool>(),
        version in 2u8..4,
        seed in any::<u64>(),
        index in 0u64..64,
    ) {
        // The fault module's own corruption shapes — exactly what the
        // runner injects at shuffle-fetch time — must always be caught
        // by the trailer.
        let plan = scihadoop_mapreduce::FaultPlan::new(scihadoop_mapreduce::FaultConfig {
            seed,
            corrupt_rate: 1.0,
            ..scihadoop_mapreduce::FaultConfig::default()
        });
        let corruption = plan.corruption(0, 0, index).expect("rate 1.0 always fires");
        let mut data = build_segment(&pairs, framing_of(seq), version);
        corruption.apply(&mut data);
        prop_assert!(
            read_all(&data).is_err(),
            "injected {:?} undetected", corruption
        );
    }
}
