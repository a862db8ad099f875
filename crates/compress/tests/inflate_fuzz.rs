//! Hostile input to the Huffman decoders: forged headers, garbage,
//! mutated and truncated streams. Every outcome must be an `Err`, the
//! original bytes, or (for a body forged under a CRC that holds) bytes
//! of the declared length — never a panic, never an allocation sized by
//! a header instead of by data. The file has its own global allocator to
//! check the second half.
//!
//! The codec frame's CRC-32C is checked before any decoder runs, so a
//! forged or damaged body reaches a decoder only under a CRC that holds:
//! each case here stamps one (`restamp`) over what it forged.

use proptest::prelude::*;
use scihadoop_compress::bitio::{BitReader, BitWriter};
use scihadoop_compress::codec::HEADER_LEN;
use scihadoop_compress::huffman::{read_lengths, write_lengths, Encoder};
use scihadoop_compress::{BzipCodec, Codec, CompressError, Crc32c, DeflateCodec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records the largest single request any test in this binary makes.
struct Watermark;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Watermark = Watermark;

/// The decoders' preallocation cap (1 MiB) plus room for everything else
/// these tests allocate; no input here is larger than 8 KiB.
const ALLOC_LIMIT: usize = (1 << 20) + (1 << 16);

fn assert_allocations_stayed_clamped() {
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(largest <= ALLOC_LIMIT, "a {largest}-byte allocation");
}

/// Give a frame the CRC-32C its method, declared length and payload
/// now have (bytes 13..17 of the `magic | method | orig_len | crc`
/// header).
fn restamp(z: &mut [u8]) {
    let mut crc = Crc32c::new();
    crc.update(&z[4..13]);
    crc.update(&z[HEADER_LEN..]);
    z[13..17].copy_from_slice(&crc.finish().to_le_bytes());
}

/// A frame with these fields and a CRC that holds over them.
fn forge(magic: &[u8], method: u8, declared: u64, body: &[u8]) -> Vec<u8> {
    let mut z = magic.to_vec();
    z.push(method);
    z.extend_from_slice(&declared.to_le_bytes());
    z.extend_from_slice(&[0; 4]);
    z.extend_from_slice(body);
    restamp(&mut z);
    z
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A sequence over `k` symbols in which no trigram repeats (the de Bruijn
/// sequence B(k, 3), unrolled): compressible, yet without one LZ77 match.
fn de_bruijn3(k: u8) -> Vec<u8> {
    fn db(t: usize, p: usize, k: u8, a: &mut [u8; 4], out: &mut Vec<u8>) {
        if t > 3 {
            if 3 % p == 0 {
                out.extend_from_slice(&a[1..=p]);
            }
            return;
        }
        a[t] = a[t - p];
        db(t + 1, p, k, a, out);
        for j in a[t - p] + 1..k {
            a[t] = j;
            db(t + 1, t, k, a, out);
        }
    }
    let mut out = Vec::new();
    db(1, 1, k, &mut [0; 4], &mut out);
    out
}

/// A hand-assembled Huffman-mode stream whose literal codes are 1, 2, …,
/// 14, 15 and 15 bits long (the last is end-of-block): as deep a tree as
/// the format allows, which the compressor only builds for inputs too
/// large to truncate at every byte.
fn deep_tree_stream() -> (Vec<u8>, Vec<u8>) {
    let mut state = 5u64;
    let data: Vec<u8> = (0..400).map(|_| (lcg(&mut state) % 15) as u8).collect();
    let mut lengths = vec![0u32; 286];
    for (s, len) in lengths.iter_mut().take(15).enumerate() {
        *len = s as u32 + 1;
    }
    lengths[256] = 15;
    let encoder = Encoder::from_lengths(&lengths);
    let mut w = BitWriter::new();
    write_lengths(&mut w, &lengths);
    write_lengths(&mut w, &[0; 30]);
    for &b in &data {
        encoder.encode(&mut w, b as usize);
    }
    encoder.encode(&mut w, 256);
    let z = forge(b"SDZ1", 1, data.len() as u64, &w.finish());
    (data, z)
}

/// Inputs and their deflate streams, which between them use stored mode,
/// an empty and a one-symbol distance alphabet, overlapping `dist == 1`
/// copies, long-distance matches and 15-bit codes.
fn corpus() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let mut state = 3u64;
    let noise: Vec<u8> = (0..600).map(|_| lcg(&mut state) as u8).collect();
    let mut far = noise.clone();
    far.extend_from_slice(&vec![7u8; 3000]);
    far.extend_from_slice(&noise[100..400]);
    let codec = DeflateCodec::new();
    let mut corpus: Vec<_> = [
        ("stored", noise),
        ("no_matches", de_bruijn3(8)),
        ("zeros", vec![0u8; 5000]),
        (
            "text",
            b"it was the best of times, it was the worst of times, ".repeat(12),
        ),
        ("far_match", far),
    ]
    .into_iter()
    .map(|(name, data)| {
        let z = codec.compress(&data);
        (name, data, z)
    })
    .collect();
    let (data, z) = deep_tree_stream();
    corpus.push(("deep_tree", data, z));
    corpus
}

/// The Huffman-mode header of a deflate stream: the code lengths of the
/// literal/length and the distance alphabet.
fn table_lengths(z: &[u8]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(z[4], 1, "not a Huffman-mode stream");
    let mut r = BitReader::new(&z[HEADER_LEN..]);
    (read_lengths(&mut r).unwrap(), read_lengths(&mut r).unwrap())
}

#[test]
fn corpus_reaches_every_decoder_shape() {
    let z = |name: &str| {
        let (_, _, z) = corpus().into_iter().find(|(n, ..)| *n == name).unwrap();
        z
    };
    assert_eq!(z("stored")[4], 0, "noise must take the stored path");
    let (_, dist) = table_lengths(&z("no_matches"));
    assert!(dist.iter().all(|&l| l == 0), "a match was found");
    let (_, dist) = table_lengths(&z("zeros"));
    assert_eq!(dist.iter().filter(|&&l| l > 0).count(), 1);
    assert_eq!(dist[0], 1, "the one distance must be 1");
    let (lit, _) = table_lengths(&z("deep_tree"));
    assert_eq!(lit.iter().copied().max(), Some(15));
    let (_, dist) = table_lengths(&z("far_match"));
    assert!(dist[20..].iter().any(|&l| l > 0), "no distance past 1024");
}

/// Decompressing `z` may fail, or return `data`; nothing else.
fn assert_err_or_original(codec: &dyn Codec, z: &[u8], data: &[u8], what: &str) {
    if let Ok(out) = codec.decompress(z) {
        assert_eq!(out, data, "{what}: wrong bytes accepted");
    }
}

#[test]
fn every_truncation_point_errors() {
    let codec = DeflateCodec::new();
    for (name, data, z) in corpus() {
        assert_eq!(codec.decompress(&z).unwrap(), data, "{name}");
        for cut in 0..z.len() {
            assert!(
                codec.decompress(&z[..cut]).is_err(),
                "{name} cut at {cut}/{}",
                z.len()
            );
            // The same cut past the header, under a CRC that holds: the
            // decoder itself must notice the missing bytes.
            if cut >= HEADER_LEN {
                let mut short = z[..cut].to_vec();
                restamp(&mut short);
                assert!(
                    codec.decompress(&short).is_err(),
                    "{name} restamped cut at {cut}/{}",
                    z.len()
                );
            }
        }
    }
    assert_allocations_stayed_clamped();
}

#[test]
fn deflate_header_claiming_2_pow_63_bytes_is_corrupt() {
    let codec = DeflateCodec::new();
    for (name, _, mut z) in corpus() {
        z[5..13].copy_from_slice(&(1u64 << 63).to_le_bytes());
        restamp(&mut z);
        assert!(
            matches!(codec.decompress(&z), Err(CompressError::Corrupt(_))),
            "{name}"
        );
        // The largest claim the body could in principle honour is not
        // preallocated either.
        let claim = (z.len() - HEADER_LEN) as u64 * 1032;
        z[5..13].copy_from_slice(&claim.to_le_bytes());
        restamp(&mut z);
        assert!(codec.decompress(&z).is_err(), "{name}");
    }
    assert_allocations_stayed_clamped();
}

#[test]
fn bzip_headers_claiming_huge_sizes_are_corrupt() {
    let codec = BzipCodec::with_level(1);
    let z = codec.compress(&b"abracadabra ".repeat(40));
    assert_eq!(z[4], 1, "not a coded frame");
    // Bit-packed LSB-first after the 17-byte header: 32 bits of block
    // count, 48 of run-length-stage size, then per block 32 of length.
    let mut rled = z.clone();
    rled[21..27].fill(0xFF);
    restamp(&mut rled);
    assert!(matches!(
        codec.decompress(&rled),
        Err(CompressError::Corrupt(_))
    ));
    let mut block = rled.clone();
    block[27..31].fill(0xFF);
    restamp(&mut block);
    assert!(codec.decompress(&block).is_err());
    assert_allocations_stayed_clamped();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and behind a well-formed header whose CRC
    /// holds and that sends them down the Huffman path, never panic
    /// either decoder.
    #[test]
    fn decoders_survive_garbage(
        body in proptest::collection::vec(any::<u8>(), 0..600),
        declared in prop_oneof![0u64..4096, any::<u64>()],
    ) {
        let bzip = BzipCodec::with_level(1);
        for (magic, codec) in [(b"SDZ1", &DeflateCodec::new() as &dyn Codec), (b"SBZ1", &bzip)] {
            let _ = codec.decompress(&body);
            for method in [0u8, 1, 2] {
                let _ = codec.decompress(&forge(magic, method, declared, &body));
            }
        }
        assert_allocations_stayed_clamped();
    }

    /// One to three mutated bytes anywhere in a valid stream are an
    /// error (or, if they cancel out, the original bytes). In a coded
    /// frame the same mutations are also made inside the body under a
    /// CRC that holds, so the Huffman decoder meets them: it may decode
    /// other bytes, but never more or fewer than the frame declares.
    #[test]
    fn mutated_streams_never_panic(
        which in 0usize..6,
        mutations in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        let (name, data, z) = corpus().swap_remove(which);
        let bzip = BzipCodec::with_level(1);
        for (codec, z) in [
            (&DeflateCodec::new() as &dyn Codec, z),
            (&bzip, bzip.compress(&data)),
        ] {
            let mut anywhere = z.clone();
            for (at, flip) in &mutations {
                let at = at % z.len();
                anywhere[at] ^= *flip;
            }
            assert_err_or_original(codec, &anywhere, &data, name);
            if z[4] != 1 {
                continue;
            }
            let mut body = z;
            for (at, flip) in &mutations {
                let at = HEADER_LEN + at % (body.len() - HEADER_LEN);
                body[at] ^= *flip;
            }
            restamp(&mut body);
            if let Ok(out) = codec.decompress(&body) {
                assert_eq!(out.len(), data.len(), "{name}: declared length not kept");
            }
        }
        assert_allocations_stayed_clamped();
    }
}
