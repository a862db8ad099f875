//! Fixed inputs of the golden-bytes suites (`tests/golden.rs` here and in
//! `scihadoop-core`, which includes this file by path). Changing a
//! generator invalidates every pinned CRC, so add inputs, never edit them.

/// A seeded byte stream (the LCG the unit tests use).
pub fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Serialized keys of an n³ row-major grid walk (Fig. 3's stream).
pub fn grid_key_stream(n: i32) -> Vec<u8> {
    let mut data = Vec::new();
    for x in 0..n {
        for y in 0..n {
            for z in 0..n {
                data.extend_from_slice(&x.to_be_bytes());
                data.extend_from_slice(&y.to_be_bytes());
                data.extend_from_slice(&z.to_be_bytes());
            }
        }
    }
    data
}

/// The shape of a sliding-median map-output segment: 18-byte records,
/// 14 bytes that never change and 4 seeded random value bytes.
pub fn median_stream(records: usize) -> Vec<u8> {
    let noise = lcg_bytes(7, records * 4);
    let mut data = Vec::with_capacity(records * 18);
    for r in 0..records {
        data.extend_from_slice(&[12, 4, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 2, 9]);
        data.extend_from_slice(&noise[r * 4..r * 4 + 4]);
    }
    data
}

/// A stream that keeps several strides of the default 1..=100 universe
/// live at once: 20-byte records with two linear counters (strides 20,
/// 40, 60, 80, 100) around a period-4 filler (stride 4 and multiples),
/// interrupted by a noise burst that evicts everything and forces
/// re-admission through the selection cycle.
pub fn multi_stride_stream() -> Vec<u8> {
    let mut data = Vec::new();
    let record = |data: &mut Vec<u8>, i: u32| {
        data.extend_from_slice(&i.to_be_bytes());
        data.extend_from_slice(&[0xA0, 0xB1, 0xC2, 0xD3, 0xA0, 0xB1, 0xC2, 0xD3]);
        data.extend_from_slice(&i.wrapping_mul(3).to_be_bytes());
        data.extend_from_slice(&[0xA0, 0xB1, 0xC2, 0xD3]);
    };
    for i in 0..6000 {
        record(&mut data, i);
    }
    data.extend_from_slice(&lcg_bytes(99, 5000));
    for i in 6000..12000 {
        record(&mut data, i);
    }
    data
}

/// Every golden input, by name.
pub fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    let text = b"the quick brown fox jumps over the lazy dog. \
                 pack my box with five dozen liquor jugs. "
        .repeat(300);
    vec![
        ("empty", Vec::new()),
        ("one", vec![0x5A]),
        ("two", vec![0x5A, 0x5A]),
        ("three", vec![1, 2, 3]),
        ("zeros_64k", vec![0u8; 65536]),
        ("random_20k", lcg_bytes(11, 20_000)),
        ("text", text),
        ("grid_30", grid_key_stream(30)),
        ("median_20k", median_stream(20_000)),
        ("multi_stride", multi_stride_stream()),
    ]
}
