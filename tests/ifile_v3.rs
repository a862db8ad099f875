//! IFile v3 property suite: grouped, column-ordered block segments must
//! decode byte-identical record streams to the flat v2 format across
//! adversarial key distributions — long runs of one key, empty keys and
//! values, value lengths that do and do not agree — and the
//! block-skipping, group-skipping merge must agree with the flat merge
//! on every input.

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop::compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop::mapreduce::ifile::MAX_BLOCK_RECORDS;
use scihadoop::mapreduce::{
    BlockMergeStream, DefaultKeySemantics, Framing, IFileWriter, KeySemantics, KvPair, MergeItem,
    MrError, RawSegment,
};
use std::sync::Arc;

fn write_segment(pairs: &[(Vec<u8>, Vec<u8>)], version: u8, budget: usize) -> Vec<u8> {
    let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
    let mut w = match version {
        2 => IFileWriter::new(Framing::IFile, codec),
        3 => IFileWriter::v3_with_budget(Framing::IFile, codec, budget),
        _ => unreachable!(),
    };
    for (k, v) in pairs {
        w.append(k, v);
    }
    w.close().data
}

/// Owned `(key, value)` pairs.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Every record of a segment in file order.
fn read_with(data: &[u8], codec: &dyn Codec) -> Result<Pairs, MrError> {
    let raw = RawSegment::open(data, codec)?;
    let mut out = Vec::new();
    raw.for_each_record(|k, v| out.push((k.to_vec(), v.to_vec())))?;
    Ok(out)
}

fn read_pairs(data: &[u8]) -> Pairs {
    read_with(data, &IdentityCodec).unwrap()
}

/// The merge oracle: sorted runs concatenated in run order and
/// stable-sorted, so a key tied across runs keeps the lower run first.
fn stable_merged(runs: Vec<Vec<KvPair>>) -> Vec<KvPair> {
    let mut all: Vec<KvPair> = runs.into_iter().flatten().collect();
    all.sort_by(|a, b| DefaultKeySemantics.compare(&a.key, &b.key));
    all
}

// ---- key distributions ------------------------------------------------

/// The design target: long shared path prefixes, short varying tails.
fn prefix_heavy_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    vec(
        (
            (0u32..500, vec(any::<u8>(), 0..6)).prop_map(|(n, tail)| {
                let mut k = format!("sensor/site-{:05}/", n).into_bytes();
                k.extend_from_slice(&tail);
                k
            }),
            vec(any::<u8>(), 0..24),
        ),
        0..64,
    )
}

/// Uniformly random keys: little to share, front coding must not lose.
fn random_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    vec((vec(any::<u8>(), 0..40), vec(any::<u8>(), 0..24)), 0..64)
}

/// Shared prefixes past the 255-byte mark, exercising multi-byte vints
/// in the shared-length field.
fn long_shared_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    vec(
        (
            (0u32..50, vec(any::<u8>(), 0..4)).prop_map(|(n, tail)| {
                let mut k = vec![b'p'; 300];
                k.extend_from_slice(format!("{:04}", n).as_bytes());
                k.extend_from_slice(&tail);
                k
            }),
            vec(any::<u8>(), 0..24),
        ),
        0..48,
    )
}

/// Few distinct keys, each many times over, with values of zero to
/// three bytes: key groups that straddle block boundaries, blocks whose
/// values all have one length and blocks whose values do not.
fn duplicate_heavy_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    (
        vec((0u8..6, vec(any::<u8>(), 0..4)), 0..200),
        prop_oneof![Just(None), (0usize..4).prop_map(Some)],
    )
        .prop_map(|(records, uniform)| {
            let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = records
                .into_iter()
                .map(|(k, mut v)| {
                    if let Some(len) = uniform {
                        v.resize(len, 7);
                    }
                    // Key 0 is the empty key; the rest share 8 bytes.
                    let key = match k {
                        0 => Vec::new(),
                        k => format!("cell-key{k}").into_bytes(),
                    };
                    (key, v)
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn v3_decodes_byte_identical_to_v2_duplicate_heavy(
        pairs in duplicate_heavy_pairs(),
        budget in prop_oneof![Just(1usize), Just(16), Just(64), Just(4096)],
    ) {
        let v2 = write_segment(&pairs, 2, 0);
        let v3 = write_segment(&pairs, 3, budget);
        prop_assert_eq!(read_pairs(&v3), read_pairs(&v2));
        prop_assert_eq!(read_pairs(&v3), pairs);
    }

    #[test]
    fn v3_roundtrips_prefix_heavy(
        pairs in prefix_heavy_pairs(),
        budget in prop_oneof![Just(1usize), Just(64), Just(512), Just(1 << 16)],
    ) {
        let data = write_segment(&pairs, 3, budget);
        prop_assert_eq!(read_pairs(&data), pairs);
    }

    #[test]
    fn v3_roundtrips_random_keys(
        pairs in random_pairs(),
        budget in prop_oneof![Just(1usize), Just(64), Just(512)],
    ) {
        let data = write_segment(&pairs, 3, budget);
        prop_assert_eq!(read_pairs(&data), pairs);
    }

    #[test]
    fn v3_roundtrips_long_shared_prefixes(
        pairs in long_shared_pairs(),
        budget in prop_oneof![Just(64usize), Just(512), Just(1 << 16)],
    ) {
        let data = write_segment(&pairs, 3, budget);
        prop_assert_eq!(read_pairs(&data), pairs);
    }

    #[test]
    fn v3_decodes_byte_identical_to_v2_prefix_heavy(pairs in prefix_heavy_pairs()) {
        let v2 = write_segment(&pairs, 2, 0);
        let v3 = write_segment(&pairs, 3, 64);
        prop_assert_eq!(read_pairs(&v2), read_pairs(&v3));
    }

    #[test]
    fn v3_decodes_byte_identical_to_v2_random(pairs in random_pairs()) {
        let v2 = write_segment(&pairs, 2, 0);
        let v3 = write_segment(&pairs, 3, 64);
        prop_assert_eq!(read_pairs(&v2), read_pairs(&v3));
    }

    #[test]
    fn v3_decodes_byte_identical_to_v2_long_shared(pairs in long_shared_pairs()) {
        let v2 = write_segment(&pairs, 2, 0);
        let v3 = write_segment(&pairs, 3, 512);
        prop_assert_eq!(read_pairs(&v2), read_pairs(&v3));
    }

    #[test]
    fn v3_roundtrips_under_a_real_codec(pairs in prefix_heavy_pairs()) {
        let codec = DeflateCodec::new();
        let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(DeflateCodec::new()), 128);
        for (k, v) in &pairs {
            w.append(k, v);
        }
        let seg = w.close();
        prop_assert_eq!(read_with(&seg.data, &codec).unwrap(), pairs);
    }

    #[test]
    fn block_merge_agrees_with_materializing_merge(
        runs in vec(prefix_heavy_pairs(), 1..6),
        budget in prop_oneof![Just(1usize), Just(64), Just(512)],
    ) {
        let ks = DefaultKeySemantics;
        let sorted_runs: Vec<Vec<KvPair>> = runs
            .iter()
            .map(|r| {
                let mut run: Vec<KvPair> = r
                    .iter()
                    .map(|(k, v)| KvPair::new(k.clone(), v.clone()))
                    .collect();
                run.sort();
                run
            })
            .collect();
        let sealed: Vec<Vec<u8>> = sorted_runs
            .iter()
            .map(|r| {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = r
                    .iter()
                    .map(|p| (p.key.to_vec(), p.value.to_vec()))
                    .collect();
                write_segment(&pairs, 3, budget)
            })
            .collect();
        let segments: Vec<RawSegment> = sealed
            .iter()
            .map(|s| RawSegment::open(s, &IdentityCodec).unwrap())
            .collect();
        let mut stream = BlockMergeStream::new(&segments, &ks).unwrap();
        let mut streamed = Vec::new();
        while let Some((k, v)) = stream.next().unwrap() {
            streamed.push(KvPair::new(k.to_vec(), v.to_vec()));
        }
        prop_assert_eq!(streamed, stable_merged(sorted_runs));
    }

    #[test]
    fn v3_bit_flips_always_detected(
        pairs in prefix_heavy_pairs(),
        bit_frac in 0.0f64..1.0,
    ) {
        let data = write_segment(&pairs, 3, 64);
        let bit = ((data.len() as f64 * 8.0 - 1.0) * bit_frac) as usize;
        let mut corrupt = data.clone();
        corrupt[bit / 8] ^= 1u8 << (bit % 8);
        prop_assert!(
            read_with(&corrupt, &IdentityCodec).is_err(),
            "bit flip at {} undetected in {}-byte v3 segment", bit, data.len()
        );
    }
}

// ---- degenerate distributions (deterministic) --------------------------

#[test]
fn v3_roundtrips_single_repeated_key() {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..500u16)
        .map(|i| (b"the-one-key".to_vec(), i.to_be_bytes().to_vec()))
        .collect();
    for budget in [1usize, 64, 1 << 16] {
        let data = write_segment(&pairs, 3, budget);
        assert_eq!(read_pairs(&data), pairs, "budget {budget}");
    }
    // Every key after the first shares everything with its predecessor.
    let v2 = write_segment(&pairs, 2, 0);
    let v3 = write_segment(&pairs, 3, 1 << 16);
    assert!(v3.len() < v2.len());
}

#[test]
fn v3_roundtrips_empty_keys() {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..100u16)
        .map(|i| (Vec::new(), i.to_be_bytes().to_vec()))
        .collect();
    for budget in [1usize, 64] {
        let data = write_segment(&pairs, 3, budget);
        assert_eq!(read_pairs(&data), pairs, "budget {budget}");
    }
}

#[test]
fn front_coding_shrinks_prefix_heavy_segments() {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..2000)
        .map(|i| {
            (
                format!("climate/temperature/cell-{:08}", i).into_bytes(),
                (i as u64).to_be_bytes().to_vec(),
            )
        })
        .collect();
    let v2 = write_segment(&pairs, 2, 0);
    let v3 = write_segment(&pairs, 3, 4096);
    assert!(
        v3.len() < v2.len(),
        "prefix-heavy keys must shrink: v2 {} bytes, v3 {} bytes",
        v2.len(),
        v3.len()
    );
    assert_eq!(read_pairs(&v2), read_pairs(&v3));
}

// ---- the grouped body: runs of one key, the record cap, value lengths ---

fn repeated(key: &[u8], n: usize, value: impl Fn(usize) -> Vec<u8>) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n).map(|i| (key.to_vec(), value(i))).collect()
}

fn v3_raw(pairs: &[(Vec<u8>, Vec<u8>)], budget: usize) -> RawSegment {
    RawSegment::open(&write_segment(pairs, 3, budget), &IdentityCodec).unwrap()
}

#[test]
fn a_key_is_stored_once_per_group_not_once_per_record() {
    // 300 copies of one 24-byte key (more than a one-byte vint counts):
    // the second copy onward costs its value and nothing else.
    let key = b"grid/var-0/cell-00000042";
    let pairs = repeated(key, 300, |i| (i as u32).to_be_bytes().to_vec());
    let data = write_segment(&pairs, 3, 1 << 16);
    assert_eq!(read_pairs(&data), pairs);
    let one = write_segment(&pairs[..1], 3, 1 << 16);
    assert_eq!(
        data.len() - one.len(),
        299 * 4 + 5 * 2,
        "299 more values, and five vints that grew by two bytes: the header's \
         records, key bytes, value bytes and body length, and the group's count"
    );
    assert_eq!(v3_raw(&pairs, 1 << 16).blocks().unwrap(), 1);
}

#[test]
fn key_runs_cross_block_boundaries_and_the_record_cap() {
    // A 16-byte budget cuts the run every four 4-byte values; every
    // block re-opens the group against its own fence key.
    let pairs = repeated(b"k", 1000, |i| (i as u32).to_be_bytes().to_vec());
    let raw = v3_raw(&pairs, 16);
    assert_eq!(raw.blocks().unwrap(), 250);
    let mut records = 0;
    raw.for_each_record(|_, _| records += 1).unwrap();
    assert_eq!(records, 1000);
    assert_eq!(read_pairs(&write_segment(&pairs, 3, 16)), pairs);

    // Empty values add nothing to the body, so only the record cap ends
    // a block: cap + 1 duplicates make two blocks of (cap, 1) records.
    let cap = MAX_BLOCK_RECORDS as usize;
    let pairs = repeated(b"the-one-key", cap + 1, |_| Vec::new());
    let raw = v3_raw(&pairs, 1 << 16);
    assert_eq!(raw.blocks().unwrap(), 2);
    let mut cursor = raw.block_cursor();
    assert!(cursor.advance().unwrap());
    // The first block's one group is the whole block: cap records.
    assert_eq!(cursor.group_remaining(), MAX_BLOCK_RECORDS);
    let mut records = 1;
    while cursor.advance().unwrap() {
        assert_eq!(
            (cursor.key(), cursor.value()),
            (&b"the-one-key"[..], &[][..])
        );
        records += 1;
    }
    assert_eq!(records, cap + 1);
    // The same with empty keys: a record that is no bytes at all.
    let pairs = repeated(b"", cap + 1, |_| Vec::new());
    assert_eq!(v3_raw(&pairs, 1 << 16).blocks().unwrap(), 2);
    assert_eq!(
        read_pairs(&write_segment(&pairs, 3, 1 << 16)).len(),
        cap + 1
    );
}

#[test]
fn value_lengths_flip_a_block_between_uniform_and_per_record() {
    let value = |len: usize| move |i: usize| vec![i as u8; len];
    let uniform = repeated(b"key", 40, value(4));
    // The odd one out first, in the middle, and last: the length column
    // starts existing at a different point of the block each time.
    for odd_at in [0usize, 20, 39] {
        let mut mixed = uniform.clone();
        mixed[odd_at].1 = vec![9; 5];
        let (u, m) = (
            write_segment(&uniform, 3, 1 << 16),
            write_segment(&mixed, 3, 1 << 16),
        );
        assert_eq!(read_pairs(&m), mixed, "odd value at {odd_at}");
        assert_eq!(
            m.len() - u.len(),
            1 + 40,
            "one more value byte and a 40-vint length column"
        );
    }
    // Per block, not per segment: with four records to a block only the
    // block holding the odd value pays for a length column (and the
    // blocks after it may be cut one record later).
    let uniform = repeated(b"key", 400, value(4));
    let mut mixed = uniform.clone();
    mixed[200].1 = vec![9; 5];
    let (u, m) = (write_segment(&uniform, 3, 16), write_segment(&mixed, 3, 16));
    assert_eq!(read_pairs(&m), mixed);
    assert!(m.len() - u.len() < 64, "{} vs {}", m.len(), u.len());
    // All-empty values are uniform too.
    let empty = repeated(b"key", 40, value(0));
    assert_eq!(read_pairs(&write_segment(&empty, 3, 64)), empty);
}

#[test]
fn grouped_blocks_splice_between_writers() {
    // Three sources of grouped blocks, lifted whole into one writer that
    // also takes loose records before, between and after them.
    let part = |tag: u8, value_len: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..120u32)
            .map(|i| (vec![b'p', tag, (i / 7) as u8], vec![i as u8; value_len]))
            .collect()
    };
    let (a, b, c) = (part(1, 4), part(3, 0), part(5, 2));
    let loose = |tag: u8| (vec![b'p', tag], b"loose".to_vec());
    let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), 64);
    let mut expected = Vec::new();
    let mut spliced = 0;
    for (tag, source) in [(0u8, &a), (2, &b), (4, &c)] {
        let (k, v) = loose(tag);
        w.append(&k, &v);
        w.append(&k, &v); // an open two-record group the splice must seal
        expected.extend([(k.clone(), v.clone()), (k, v)]);
        let raw = v3_raw(source, 48);
        let mut cursor = raw.block_cursor();
        assert!(cursor.advance().unwrap());
        while cursor.at_block_start() {
            let blk = cursor.take_block().unwrap();
            w.append_encoded_block(&blk).unwrap();
            spliced += 1;
        }
        expected.extend(source.iter().cloned());
    }
    let (k, v) = loose(6);
    w.append(&k, &v);
    expected.push((k, v));
    assert!(spliced > 12, "{spliced} blocks spliced");
    let seg = w.close();
    assert_eq!(seg.records as usize, expected.len());
    assert_eq!(
        seg.key_bytes + seg.value_bytes + seg.framing_bytes() + 6,
        seg.raw_bytes + seg.key_saved_bytes(),
        "the byte-split identity holds across spliced blocks"
    );
    assert_eq!(read_pairs(&seg.data), expected);
}

#[test]
fn duplicate_heavy_merge_replays_once_per_group() {
    // Eight runs over the same 40 keys, each key 25 times per run, all
    // sharing their first eight bytes so that every match between two
    // heads needs the comparator.
    let (k, keys, dups) = (8usize, 40u16, 25usize);
    let runs: Vec<Vec<KvPair>> = (0..k)
        .map(|r| {
            (0..keys)
                .flat_map(|key| {
                    (0..dups).map(move |d| {
                        let mut bytes = b"gridcell".to_vec();
                        bytes.extend_from_slice(&key.to_be_bytes());
                        KvPair::new(bytes, vec![r as u8, d as u8])
                    })
                })
                .collect()
        })
        .collect();
    let merge = |version: u8| {
        let sealed: Vec<Vec<u8>> = runs
            .iter()
            .map(|run| {
                let pairs: Vec<_> = run
                    .iter()
                    .map(|p| (p.key.to_vec(), p.value.to_vec()))
                    .collect();
                write_segment(&pairs, version, 256)
            })
            .collect();
        let segments: Vec<RawSegment> = sealed
            .iter()
            .map(|s| RawSegment::open(s, &IdentityCodec).unwrap())
            .collect();
        let blocks: usize = segments.iter().map(|s| s.blocks().unwrap()).sum();
        let mut stream = BlockMergeStream::new(&segments, &DefaultKeySemantics).unwrap();
        let mut merged = Vec::new();
        while let Some(item) = stream.next_item().unwrap() {
            match item {
                MergeItem::Record(key, value) => {
                    merged.push(KvPair::new(key.to_vec(), value.to_vec()))
                }
                MergeItem::Block(_) => panic!("every block here is contended"),
            }
        }
        (merged, stream.compare_calls(), blocks)
    };
    let expected = stable_merged(runs.clone());
    let (merged, compare_calls, blocks) = merge(3);
    assert_eq!(merged, expected);
    // A block boundary cuts a key's run into two groups.
    let groups = k * keys as usize + blocks;
    let bound = groups * k.ilog2() as usize + k;
    assert!(
        compare_calls as usize <= bound,
        "{compare_calls} comparator calls for {groups} groups of {k} runs (bound {bound})"
    );
    // The flat layout cannot know the next key repeats: one replay a record.
    let (flat, flat_calls, _) = merge(2);
    assert_eq!(flat, expected);
    assert!(flat_calls as usize > 4 * bound, "{flat_calls} vs {bound}");
}
