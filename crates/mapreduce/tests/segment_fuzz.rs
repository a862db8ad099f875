//! Hostile input to the v3 segment parser: garbage, truncations, and
//! segments whose header fields or body bytes were rewritten *and whose
//! CRCs were recomputed afterwards*, so that no checksum stands between
//! the forgery and `RawSegment::open` + a full `BlockCursor` drain. Every
//! outcome must be an `Err` or a bounded decode — never a panic, never
//! more than [`MAX_BLOCK_RECORDS`] records out of one block, never an
//! allocation sized by a number in the input rather than by the input.
//! The file has its own global allocator to check the last part (the
//! harness of `compress/tests/inflate_fuzz.rs`, armed per thread).
//!
//! The forgeries are built by a second, longhand encoder of the format
//! (DESIGN.md §12), which the first test pins to the writer's bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use scihadoop_compress::{crc32c, IdentityCodec};
use scihadoop_mapreduce::ifile::MAX_BLOCK_RECORDS;
use scihadoop_mapreduce::{Framing, IFileWriter, MrError, RawSegment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---- allocation watermark -------------------------------------------------

/// Records the largest single request the current thread makes while
/// [`drain_measured`] has it armed.
struct Watermark;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the watermark is a side effect only.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Watermark = Watermark;

/// The parser's stated allocation bound: no single request above twice
/// the segment (its decompressed copy is 1×, a key buffer that doubled
/// past the longest key under 2×) plus room for an error string.
fn alloc_limit(input: usize) -> usize {
    2 * input + 256
}

/// Open `data` and walk every record. Returns the record count, or the
/// cursor's error — after checking the bounds that hold either way, and
/// that the cursor refuses whatever the header walk behind
/// `RawSegment::blocks` refuses.
fn drain_measured(data: &[u8]) -> Result<u64, MrError> {
    LARGEST.with(|largest| largest.set(Some(0)));
    let mut records = 0u64;
    let result = RawSegment::open(data, &IdentityCodec).and_then(|seg| {
        let blocks = seg.blocks();
        let most = blocks
            .as_ref()
            .map_or(u64::MAX, |&blocks| MAX_BLOCK_RECORDS * blocks as u64);
        let drained = seg.for_each_record(|_, _| {
            records += 1;
            assert!(
                !seg.is_block_format() || records <= most,
                "more than cap × {blocks:?} blocks records"
            );
        });
        assert!(
            blocks.is_ok() || drained.is_err(),
            "the cursor read blocks the header walk refused: {blocks:?}"
        );
        drained
    });
    let largest = LARGEST.with(|largest| largest.take()).unwrap_or(0);
    assert!(
        largest <= alloc_limit(data.len()),
        "a {largest}-byte allocation for a {}-byte segment",
        data.len()
    );
    result.map(|()| records)
}

// ---- the format, longhand -------------------------------------------------

fn vint(out: &mut Vec<u8>, v: i64) {
    if (-112..=127).contains(&v) {
        return out.push(v as u8);
    }
    let (tag, magnitude) = if v < 0 { (-120i64, !v) } else { (-112i64, v) };
    let bytes = (8 - magnitude.leading_zeros() as usize / 8).max(1);
    out.push((tag - bytes as i64) as u8);
    out.extend_from_slice(&magnitude.to_be_bytes()[8 - bytes..]);
}

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// One block as its header fields and body columns.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    /// records, key_bytes, stored_key_bytes, value_bytes, groups,
    /// uniform_value_len — in header order.
    fields: [i64; 6],
    fence: Vec<u8>,
    body: Vec<u8>,
}

impl Block {
    /// Lay `pairs` (non-empty) out as one block: a head per run of
    /// identical keys, front-coded against the previous group's key (the
    /// first against the fence, which is itself), then the suffixes, the
    /// value lengths unless they all agree, and the values.
    fn of(pairs: &[(Vec<u8>, Vec<u8>)]) -> Block {
        let fence = pairs[0].0.clone();
        let (mut heads, mut suffixes, mut lens, mut values) = (vec![], vec![], vec![], vec![]);
        let (mut groups, mut key_bytes) = (0i64, 0i64);
        let mut previous = fence.clone();
        let mut i = 0;
        while i < pairs.len() {
            let key = &pairs[i].0;
            let count = pairs[i..].iter().take_while(|(k, _)| k == key).count();
            let shared = previous.iter().zip(key).take_while(|(a, b)| a == b).count();
            vint(&mut heads, shared as i64);
            vint(&mut heads, (key.len() - shared) as i64);
            vint(&mut heads, count as i64);
            suffixes.extend_from_slice(&key[shared..]);
            groups += 1;
            key_bytes += (key.len() * count) as i64;
            previous = key.clone();
            i += count;
        }
        for (_, value) in pairs {
            vint(&mut lens, value.len() as i64);
            values.extend_from_slice(value);
        }
        let uniform = pairs.iter().all(|(_, v)| v.len() == pairs[0].1.len());
        let fields = [
            pairs.len() as i64,
            key_bytes,
            suffixes.len() as i64,
            values.len() as i64,
            groups,
            if uniform { pairs[0].1.len() as i64 } else { -1 },
        ];
        let lens = if uniform { vec![] } else { lens };
        Block {
            fields,
            fence,
            body: [heads, suffixes, lens, values].concat(),
        }
    }

    /// Append the block to `out`: its header claiming `body_len` body
    /// bytes, the CRC-32C of whatever the body holds by now, the body.
    fn encode(&self, out: &mut Vec<u8>, body_len: usize) {
        self.fields.iter().for_each(|&field| vint(out, field));
        vint(out, self.fence.len() as i64);
        out.extend_from_slice(&self.fence);
        vint(out, body_len as i64);
        out.extend_from_slice(&crc32c(&self.body).to_be_bytes());
        out.extend_from_slice(&self.body);
    }
}

/// The file header and `blocks` behind it: everything the trailer covers.
fn region(blocks: &[Block]) -> Vec<u8> {
    let mut out = b"SHIF\x03\x01".to_vec();
    blocks
        .iter()
        .for_each(|block| block.encode(&mut out, block.body.len()));
    out
}

/// `region` closed by the CRC-32C trailer over it.
fn sealed(mut region: Vec<u8>) -> Vec<u8> {
    let trailer = crc32c(&region);
    region.extend_from_slice(&trailer.to_be_bytes());
    region
}

/// A whole segment around `blocks`.
fn segment(blocks: &[Block]) -> Vec<u8> {
    sealed(region(blocks))
}

/// Whether `data` is refused as malformed, not as a checksum failure.
fn refused(data: &[u8]) -> bool {
    matches!(drain_measured(data), Err(MrError::Intermediate(_)))
}

/// Sorted records over few keys (so groups form), values short enough
/// that blocks are sometimes uniform and sometimes not, cut into blocks.
fn blocks() -> impl Strategy<Value = (Vec<Block>, Pairs)> {
    (
        vec((vec(0u8..3, 0..5), vec(any::<u8>(), 0..3)), 1..40),
        1usize..12,
    )
        .prop_map(|(mut pairs, per_block)| {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            (pairs.chunks(per_block).map(Block::of).collect(), pairs)
        })
}

fn decoded(data: &[u8]) -> Pairs {
    let seg = RawSegment::open(data, &IdentityCodec).unwrap();
    let mut out = Vec::new();
    seg.for_each_record(|k, v| out.push((k.to_vec(), v.to_vec())))
        .unwrap();
    out
}

// ---- tests ----------------------------------------------------------------

#[test]
fn a_block_of_cap_duplicates_decodes_and_one_more_is_refused() {
    // One head, no suffix, no values: 65,536 records in a 4-byte body.
    let mut block = Block::of(&[(b"key".to_vec(), vec![])]);
    let cap = MAX_BLOCK_RECORDS as i64;
    let with_count = |block: &mut Block, count: i64| {
        block.fields[0] = count;
        block.fields[1] = 3 * count;
        block.body.clear();
        [3, 0, count].iter().for_each(|&v| vint(&mut block.body, v));
    };
    with_count(&mut block, cap);
    assert_eq!(
        drain_measured(&segment(&[block.clone()])).unwrap(),
        MAX_BLOCK_RECORDS
    );
    with_count(&mut block, cap + 1);
    assert!(matches!(
        drain_measured(&segment(&[block])),
        Err(MrError::Intermediate(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The longhand encoder is the format: one block's worth of records
    /// through the writer gives the same bytes, and several blocks of it
    /// decode to the records they were cut from.
    #[test]
    fn longhand_encoder_matches_the_writer(case in blocks()) {
        let (blocks, pairs) = case;
        let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), 1 << 20);
        pairs.iter().for_each(|(k, v)| w.append(k, v));
        prop_assert_eq!(w.close().data, segment(&[Block::of(&pairs)]));
        let data = segment(&blocks);
        prop_assert_eq!(decoded(&data), pairs);
    }

    #[test]
    fn garbage_fails_structured(
        bytes in vec(any::<u8>(), 0..600),
        dress in any::<bool>(),
    ) {
        // Bare, or dressed as a v3 segment: magic, version and a trailer
        // that checks, so the header walk and block parser see the bytes.
        let data = if dress {
            let mut data = [b"SHIF\x03\x01".as_slice(), &bytes].concat();
            let trailer = crc32c(&data);
            data.extend_from_slice(&trailer.to_be_bytes());
            data
        } else {
            bytes
        };
        // Random bytes that tile into CRC'd blocks do not happen.
        prop_assert!(drain_measured(&data).map_or(true, |records| records == 0));
    }

    #[test]
    fn every_truncation_errors(case in blocks(), keep in 0.0f64..1.0) {
        let data = segment(&case.0);
        let keep = (data.len() as f64 * keep) as usize;
        prop_assert!(drain_measured(&data[..keep]).is_err());
    }

    /// A header field that says anything but the truth is caught by the
    /// body walk — the CRCs were recomputed and vouch for the lie.
    #[test]
    fn forged_header_fields_are_refused(
        case in blocks(),
        which in any::<usize>(),
        field in 0usize..6,
        forged in prop_oneof![
            -3i64..300,
            Just(MAX_BLOCK_RECORDS as i64),
            Just(MAX_BLOCK_RECORDS as i64 + 1),
            Just(i64::MAX),
            Just(i64::MIN),
            any::<i64>(),
        ],
    ) {
        let mut blocks = case.0;
        let which = which % blocks.len();
        let block = &mut blocks[which];
        prop_assume!(block.fields[field] != forged);
        block.fields[field] = forged;
        let result = drain_measured(&segment(&blocks));
        prop_assert!(
            matches!(result, Err(MrError::Intermediate(_))),
            "field {} forged to {}: {:?}", field, forged, result
        );
    }

    /// A segment is its blocks: bytes after the last one are read as a
    /// header, and too few of them ever to make a block are refused.
    #[test]
    fn bytes_after_the_last_block_are_refused(
        case in blocks(),
        trailing in vec(any::<u8>(), 1..12),
    ) {
        let data = sealed([region(&case.0), trailing].concat());
        prop_assert!(refused(&data));
    }

    /// A header whose body would end past the trailer is refused before
    /// any of that body is read.
    #[test]
    fn a_body_past_the_region_is_refused(case in blocks(), extra in 1usize..300) {
        let (last, rest) = case.0.split_last().expect("at least one block");
        let mut data = region(rest);
        last.encode(&mut data, last.body.len() + extra);
        prop_assert!(refused(&sealed(data)));
    }

    /// A segment that ends inside its last block's header, at any byte
    /// from the first field to the CRC, is refused.
    #[test]
    fn a_header_cut_mid_field_is_refused(case in blocks(), at in any::<usize>()) {
        let (last, rest) = case.0.split_last().expect("at least one block");
        let mut block = Vec::new();
        last.encode(&mut block, last.body.len());
        let header = block.len() - last.body.len();
        let mut data = region(rest);
        data.extend_from_slice(&block[..1 + at % (header - 1)]);
        prop_assert!(refused(&sealed(data)));
    }

    /// Rewritten body and fence bytes may spell another valid block;
    /// whatever they spell is decoded within bounds or refused.
    #[test]
    fn forged_bodies_fail_structured(
        case in blocks(),
        which in any::<usize>(),
        edits in vec((any::<usize>(), any::<u8>()), 1..4),
        resize in -2isize..3,
    ) {
        let mut blocks = case.0;
        let which = which % blocks.len();
        let block = &mut blocks[which];
        let len = block.body.len().saturating_add_signed(resize);
        block.body.resize(len, 0x80);
        for (at, byte) in edits {
            if let Some(len) = std::num::NonZeroUsize::new(block.body.len()) {
                block.body[at % len] = byte;
            }
        }
        if let Ok(records) = drain_measured(&segment(&blocks)) {
            let claimed: i64 = blocks.iter().map(|b| b.fields[0]).sum();
            prop_assert_eq!(records as i64, claimed);
        }
    }
}
