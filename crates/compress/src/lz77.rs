//! LZ77 match finding with hash chains (the zlib approach), keyed on
//! four bytes rather than zlib's three.
//!
//! Every position is hashed once, on the four bytes it starts, into a
//! head table sized from the input (2^8..2^17 slots), and linked behind
//! the previous position with that hash inside the 32 KiB window. A
//! search walks at most 128 links and takes the longest match, the
//! nearest among equals; `tokenize` adds zlib's one-step lazy
//! evaluation. On the sliding-median job's transformed segments (80 of
//! them, 10.8 MB) a three-byte key in a fixed 2^15-slot table spent
//! 15.7 M chain steps, most of them on hash collisions; the four-byte
//! key spends 3.6 M, and deflate's output shrinks by 3 %. A three-byte
//! repeat is still coded when a four-byte search lands on it, but none
//! is looked for. Lazy evaluation compares lengths, not costs: where the
//! longer chains reach a long match one position on, it pays a literal
//! to take it over two shorter matches, which makes the raw Fig. 3 key
//! stream compress worse (EXPERIMENTS.md, Fig. 3).

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

/// Bytes a chain is keyed on: a candidate that shares a chain with a
/// position agrees with it on these four bytes unless the hash
/// collided. The last three positions of an input have no key; they are
/// neither searched nor linked.
const HASH_LEN: usize = 4;
/// Chain-head table size bounds, in bits. The table is sized from the
/// input — the first power of two at or above its length — so a
/// few-KiB segment does not zero a table sized for a large one, and a
/// large input stops at 2^17 slots (512 KiB of heads, four slots per
/// position of the 32 KiB window).
const MIN_HASH_BITS: u32 = 8;
const MAX_HASH_BITS: u32 = 17;
/// Candidates visited per search at most (zlib level 6's `max_chain`).
const MAX_CHAIN: usize = 128;

/// Head-table bits for an `n`-byte input: `ceil(log2(n))`, clamped to
/// `[MIN_HASH_BITS, MAX_HASH_BITS]`.
#[inline]
fn hash_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).clamp(MIN_HASH_BITS, MAX_HASH_BITS)
}

/// Multiplicative hash of the four bytes at `i` into `bits` bits.
#[inline]
pub(crate) fn hash4(data: &[u8], i: usize, bits: u32) -> usize {
    let mut word = [0; HASH_LEN];
    word.copy_from_slice(&data[i..i + HASH_LEN]);
    (u32::from_le_bytes(word).wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
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

/// zlib's hash chains over the whole input, keyed on four bytes.
/// `head[h]` is the most recent position with hash `h`, stored as
/// `position + FAR` modulo 2³²: the zero a table starts with then reads
/// as "further back than the window", and `FAR` being a multiple of the
/// window, the sum still ends in the position's slot. (The modulus only
/// matters past 4 GiB, where a chain may end early or start at a stale
/// position, but every candidate is still compared byte for byte.)
/// `prev[i % WINDOW_SIZE]` is the slot of the previous position with
/// `i`'s hash, or `END` when there is none within the window: following
/// a chain is one dependent load per step, and the distance is summed
/// beside it. An input shorter than the window needs only one slot per
/// position.
struct HashChains<'a> {
    data: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u16>,
    bits: u32,
}

const FAR: u32 = 2 * WINDOW_SIZE as u32;
const END: u16 = u16::MAX;

impl<'a> HashChains<'a> {
    fn new(data: &'a [u8]) -> Self {
        let bits = hash_bits(data.len());
        HashChains {
            data,
            head: vec![0; 1 << bits],
            prev: vec![END; data.len().min(WINDOW_SIZE)],
            bits,
        }
    }

    /// The chain of position `i`, which has `HASH_LEN` bytes left.
    #[inline]
    fn hash(&self, i: usize) -> usize {
        hash4(self.data, i, self.bits)
    }

    /// Make position `i` the head of chain `h`, its own hash.
    #[inline]
    fn link(&mut self, i: usize, h: usize) {
        let here = (i as u32).wrapping_add(FAR);
        let head = &mut self.head[h];
        self.prev[i % WINDOW_SIZE] = match here.wrapping_sub(*head) as usize {
            1..=WINDOW_SIZE => (*head as usize % WINDOW_SIZE) as u16,
            _ => END,
        };
        *head = here;
    }

    /// The longest match for position `i` on chain `h`, its own hash,
    /// as `(len, dist)`: the nearest candidate wins among equally long
    /// ones.
    #[inline]
    fn find(&self, i: usize, h: usize) -> Option<(usize, usize)> {
        let data = self.data;
        let max_len = MAX_MATCH.min(data.len() - i);
        let here = &data[i..i + max_len];
        let head = self.head[h];
        let mut dist = (i as u32).wrapping_add(FAR).wrapping_sub(head) as usize;
        let mut slot = head as usize % WINDOW_SIZE;
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut next_byte = here[best_len];
        for _ in 0..MAX_CHAIN {
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
pub fn tokenize(data: &[u8], mut emit: impl FnMut(Token)) {
    let n = data.len();
    let mut chains = HashChains::new(data);
    // Positions below `keyed` have a chain key.
    let keyed = n.saturating_sub(HASH_LEN - 1);
    let matched = |len: usize, dist: usize| Token::Match {
        len: len as u16,
        dist: dist as u16,
    };

    let mut i = 0usize;
    let mut pending: Option<(usize, usize)> = None; // match found at i-1
    while i < n {
        // Search `i`'s chain, then put `i` on it: one hash per position.
        let here = if i < keyed {
            let h = chains.hash(i);
            let found = chains.find(i, h);
            chains.link(i, h);
            found
        } else {
            None
        };
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
        // Every keyed position enters its chain, matched over or not.
        for j in i + 1..next.min(keyed) {
            chains.link(j, chains.hash(j));
        }
        i = next;
    }
    if let Some((plen, pdist)) = pending {
        emit(matched(plen, pdist));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens_of(data: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::new();
        tokenize(data, |t| tokens.push(t));
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
        assert_eq!(detokenize(&tokens_of(data)), data);
    }

    /// `len` seeded pseudo-random bytes.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
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
        let tokens = tokens_of(data);
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
        let tokens = tokens_of(&data);
        assert_eq!(detokenize(&tokens), data);
        assert!(tokens.len() < 10, "run should compress: {}", tokens.len());
    }

    #[test]
    fn random_data_roundtrips() {
        roundtrip(&noise(10_000, 0x12345678));
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
        let tokens = tokens_of(&data);
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
        // Records that repeat every 977 records, and noise with 4-byte
        // repeats planted at the window's edge: 40,000 bytes (its head
        // table has 2^16 slots) and 200,000 bytes, over six windows and
        // past the largest table's 2^17 slots, planted again beyond the
        // fourth window.
        let mut records = Vec::new();
        for i in 0..50_000u32 {
            records.extend_from_slice(&(i % 977).to_be_bytes());
        }
        let mut inputs = vec![(records, Vec::new())];
        for (len, bases) in [
            (40_000, vec![1_000]),
            (200_000, vec![1_000, 4 * WINDOW_SIZE + 1_000]),
        ] {
            let mut data = noise(len, len as u64);
            let mut planted = Vec::new();
            for base in bases {
                for (k, dist) in [WINDOW_SIZE - 1, WINDOW_SIZE, WINDOW_SIZE + 1]
                    .into_iter()
                    .enumerate()
                {
                    let (from, to) = (base + 100 * k, base + 100 * k + dist);
                    let repeat = [0xC0, 0xDE, k as u8, (base >> 8) as u8];
                    data[from..from + 4].copy_from_slice(&repeat);
                    data[to..to + 4].copy_from_slice(&repeat);
                    planted.push((to, dist));
                }
            }
            inputs.push((data, planted));
        }
        for (data, planted) in &inputs {
            let tokens = tokens_of(data);
            let mut at = 0;
            let mut starts = std::collections::HashMap::new();
            for &t in &tokens {
                starts.insert(at, t);
                at += match t {
                    Token::Literal(_) => 1,
                    Token::Match { len, dist } => {
                        assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                        assert!((1..=WINDOW_SIZE).contains(&(dist as usize)));
                        len as usize
                    }
                };
            }
            assert_eq!(detokenize(&tokens), *data);
            // A repeat one window back is found; one byte further is not.
            for &(to, dist) in planted {
                let found =
                    matches!(starts[&to], Token::Match { dist: d, .. } if d as usize == dist);
                assert_eq!(
                    found,
                    dist <= WINDOW_SIZE,
                    "repeat at {to}, distance {dist}"
                );
            }
        }
    }
}
