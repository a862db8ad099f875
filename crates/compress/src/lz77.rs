//! LZ77 match finding with hash chains (the zlib approach).

/// Sliding-window size. DEFLATE-compatible 32 KiB.
pub const WINDOW_SIZE: usize = 1 << 15;
/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (DEFLATE's 258).
pub const MAX_MATCH: usize = 258;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance in `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    // One unaligned load; only the last position of the input falls back
    // to three.
    let v = match data.get(i..i + 4) {
        Some(w) => u32::from_le_bytes(w.try_into().expect("4-byte slice")) & 0x00FF_FFFF,
        None => u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]),
    };
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of two equally long slices. Compares
/// eight bytes per step (the first differing byte falls out of the XOR's
/// trailing zeros), then finishes byte-wise — exactly what the scalar
/// loop would produce.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < a.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// zlib's hash chains over the whole input. `head[h]` is the most recent
/// position with hash `h`, stored as `position + FAR` modulo 2³²: the
/// zero a table starts with then reads as "further back than the
/// window", and `FAR` being a multiple of the window, the sum still ends
/// in the position's slot. (The modulus only matters past 4 GiB, where a
/// chain may end early or start at a stale position, but every candidate
/// is still compared byte for byte.) `prev[i % WINDOW_SIZE]` is the slot
/// of the previous position with `i`'s hash, or `END` when there is none
/// within the window: following a chain is one dependent load per step,
/// and the distance is summed beside it.
struct HashChains<'a> {
    data: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u16>,
    max_chain: usize,
}

const FAR: u32 = 2 * WINDOW_SIZE as u32;
const END: u16 = u16::MAX;

impl HashChains<'_> {
    /// Link positions `from..to` into their chains, as far as they have
    /// three bytes to hash.
    #[inline]
    fn insert(&mut self, from: usize, to: usize) {
        let to = to.min(self.data.len().saturating_sub(MIN_MATCH - 1));
        for i in from..to {
            let here = (i as u32).wrapping_add(FAR);
            let head = &mut self.head[hash3(self.data, i)];
            self.prev[i % WINDOW_SIZE] = match here.wrapping_sub(*head) as usize {
                1..=WINDOW_SIZE => (*head as usize % WINDOW_SIZE) as u16,
                _ => END,
            };
            *head = here;
        }
    }

    /// The longest match for position `i` as `(len, dist)`: the nearest
    /// candidate wins among equally long ones.
    #[inline]
    fn find(&self, i: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = MAX_MATCH.min(data.len() - i);
        let here = &data[i..i + max_len];
        let head = self.head[hash3(data, i)];
        let mut dist = (i as u32).wrapping_add(FAR).wrapping_sub(head) as usize;
        let mut slot = head as usize % WINDOW_SIZE;
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut next_byte = here[best_len];
        for _ in 0..self.max_chain {
            if !(1..=WINDOW_SIZE).contains(&dist) {
                break;
            }
            // Quick reject on the byte past the current best
            // (`best_len < max_len`, so it is inside the data).
            if data[i - dist + best_len] == next_byte {
                // `dist >= 1`: the candidate's window ends inside the data.
                let l = match_len(&data[i - dist..i - dist + max_len], here);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= max_len {
                        break;
                    }
                    next_byte = here[best_len];
                }
            }
            let next = self.prev[slot];
            if next == END {
                break;
            }
            // Slots a whole window apart coincide; a link never points
            // at its own position, so equal slots mean exactly that.
            dist += match slot.wrapping_sub(next as usize) % WINDOW_SIZE {
                0 => WINDOW_SIZE,
                step => step,
            };
            slot = next as usize;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }
}

/// Tokenize `data` greedily with lazy matching (one-step lookahead, like
/// zlib's default strategy), handing each token to `emit` in order.
pub fn tokenize(data: &[u8], max_chain: usize, mut emit: impl FnMut(Token)) {
    let n = data.len();
    if n < MIN_MATCH {
        data.iter().for_each(|&b| emit(Token::Literal(b)));
        return;
    }
    let mut chains = HashChains {
        data,
        head: vec![0; HASH_SIZE],
        prev: vec![END; WINDOW_SIZE],
        max_chain,
    };
    let matched = |len: usize, dist: usize| Token::Match {
        len: len as u16,
        dist: dist as u16,
    };

    let mut i = 0usize;
    let mut pending: Option<(usize, usize)> = None; // match found at i-1
    while i < n {
        let here = chains.find(i);
        // Where the next search starts: one position on, or past a match.
        let mut next = i + 1;
        match (pending.take(), here) {
            (Some((plen, _pdist)), Some((len, _))) if len > plen => {
                // Lazy: the match starting here is better; emit the
                // previous position as a literal and reconsider.
                emit(Token::Literal(data[i - 1]));
                pending = here;
            }
            (Some((plen, pdist)), _) => {
                // Previous match wins; it started at i-1.
                emit(matched(plen, pdist));
                next = (i - 1 + plen).min(n);
            }
            (None, Some((len, dist))) => {
                if len <= 4 && i + 1 < n {
                    // Defer: maybe a longer match starts at i+1.
                    pending = Some((len, dist));
                } else {
                    emit(matched(len, dist));
                    next = (i + len).min(n);
                }
            }
            (None, None) => emit(Token::Literal(data[i])),
        }
        // Every position enters the chains, matched over or not.
        chains.insert(i, next);
        i = next;
    }
    if let Some((plen, pdist)) = pending {
        emit(matched(plen, pdist));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens_of(data: &[u8], max_chain: usize) -> Vec<Token> {
        let mut tokens = Vec::new();
        tokenize(data, max_chain, |t| tokens.push(t));
        tokens
    }

    /// Expand tokens back into bytes.
    fn detokenize(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let start = out.len() - dist as usize;
                    for k in 0..len as usize {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    fn roundtrip(data: &[u8]) {
        assert_eq!(detokenize(&tokens_of(data, 64)), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repeated_data_produces_matches() {
        let data = b"abcabcabcabcabcabc";
        let tokens = tokens_of(data, 64);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match in {tokens:?}"
        );
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn overlapping_match_is_handled() {
        // "aaaa..." compresses as literal 'a' + overlapping match dist=1.
        let data = vec![b'a'; 300];
        let tokens = tokens_of(&data, 64);
        assert_eq!(detokenize(&tokens), data);
        assert!(tokens.len() < 10, "run should compress: {}", tokens.len());
    }

    #[test]
    fn random_data_roundtrips() {
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn grid_key_stream_compresses_well() {
        // The paper's workload: walking a grid yields near-identical
        // 12-byte records; LZ77 should find long matches.
        let mut data = Vec::new();
        for x in 0..20i32 {
            for y in 0..20i32 {
                for z in 0..20i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let tokens = tokens_of(&data, 64);
        assert_eq!(detokenize(&tokens), data);
        assert!(
            tokens.len() < data.len() / 4,
            "grid stream should tokenize to <25%: {} tokens for {} bytes",
            tokens.len(),
            data.len()
        );
    }

    #[test]
    fn wide_match_len_agrees_with_scalar() {
        let mut state = 0xDEADBEEFu64;
        let mut data = vec![0u8; 4096];
        for b in data.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = if (state >> 60) < 12 {
                7
            } else {
                (state >> 33) as u8
            };
        }
        // Plant shared prefixes at assorted alignments and mismatch
        // offsets (including overlapping candidates, dist < 8).
        for (cand, i, planted) in [(0, 100, 293), (3, 1000, 40), (17, 2048, 258), (5, 13, 9)] {
            for k in 0..planted {
                data[i + k] = data[cand + k];
            }
            data[i + planted] = data[cand + planted].wrapping_add(1);
            let max_len = MAX_MATCH.min(data.len() - i);
            let mut scalar = 0;
            while scalar < max_len && data[cand + scalar] == data[i + scalar] {
                scalar += 1;
            }
            let wide = match_len(&data[cand..cand + max_len], &data[i..i + max_len]);
            assert_eq!(wide, scalar);
            assert_eq!(scalar, planted.min(max_len));
        }
    }

    #[test]
    fn match_lengths_and_distances_stay_in_bounds() {
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            data.extend_from_slice(&(i % 977).to_be_bytes());
        }
        for t in tokens_of(&data, 32) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!(dist as usize >= 1 && dist as usize <= WINDOW_SIZE);
            }
        }
    }
}
