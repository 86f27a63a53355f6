//! MD5 (RFC 1321), implemented from scratch.
//!
//! rsync uses MD5 as its strong block checksum (MD4 historically); we use it
//! the same way. MD5 is *not* collision-resistant and must never be used for
//! security — here it only guards against rolling-checksum false positives,
//! exactly as in rsync.

thread_local! {
    /// One-shot digest invocations on this thread (see
    /// [`Md5::digest_invocations`]).
    static DIGEST_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The chaining values of RFC 1321 §3.3.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Chaining state of `L` independent messages, word-major: `s[w][l]` is
/// word `w` of lane `l`, so each step of the compression function is one
/// operation over `L` adjacent `u32`s.
type Lanes<const L: usize> = [[u32; L]; 4];

/// Streaming MD5 context.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: Lanes<1>,
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh context.
    pub fn new() -> Self {
        Md5 {
            state: INIT.map(|w| [w]),
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Digest a whole message in one call.
    pub fn digest(data: &[u8]) -> [u8; 16] {
        DIGEST_CALLS.with(|c| c.set(c.get().wrapping_add(1)));
        let mut ctx = Md5::new();
        ctx.update(data);
        ctx.finalize()
    }

    /// Digest four messages of equal length at once, one per lane of the
    /// compression function; equal to four [`Md5::digest`] calls, and
    /// counted as four by [`Md5::digest_invocations`].
    ///
    /// # Panics
    ///
    /// If the messages differ in length.
    pub(crate) fn digest4(msgs: [&[u8]; 4]) -> [[u8; 16]; 4] {
        let len = msgs[0].len();
        assert!(
            msgs.iter().all(|m| m.len() == len),
            "four-lane MD5 needs messages of equal length"
        );
        DIGEST_CALLS.with(|c| c.set(c.get().wrapping_add(4)));
        let mut state = INIT.map(|w| [w; 4]);
        let full = len - len % 64;
        for at in (0..full).step_by(64) {
            compress(&mut state, &load(msgs.map(|m| &m[at..at + 64])));
        }
        pad(&mut state, msgs.map(|m| &m[full..]), len as u64);
        output(&state)
    }

    /// The MD5 of every `size`-byte chunk of `data` in order, the last
    /// possibly short: [`Md5::digest`] of each chunk, with runs of four
    /// full chunks hashed together by [`Md5::digest4`].
    ///
    /// # Panics
    ///
    /// If `size` is zero.
    pub(crate) fn digest_chunks(data: &[u8], size: usize) -> Vec<[u8; 16]> {
        assert!(size > 0, "chunk size must be positive");
        let mut out = Vec::with_capacity(data.len().div_ceil(size));
        let mut quads = data.chunks_exact(4 * size);
        for q in &mut quads {
            let (a, rest) = q.split_at(size);
            let (b, rest) = rest.split_at(size);
            let (c, d) = rest.split_at(size);
            out.extend(Md5::digest4([a, b, c, d]));
        }
        out.extend(quads.remainder().chunks(size).map(Md5::digest));
        out
    }

    /// Whole-message digests computed on this thread so far. A strong-hash
    /// probe counter: callers that care about hashing cost (e.g. the
    /// signature matcher tests and the chunk-store bench) diff this around a
    /// region to count exactly how many `digest` calls it performed.
    pub fn digest_invocations() -> u64 {
        DIGEST_CALLS.with(|c| c.get())
    }

    /// Hex string of a whole-message digest.
    pub fn hex_digest(data: &[u8]) -> String {
        let d = Self::digest(data);
        let mut s = String::with_capacity(32);
        for b in d {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &load([&self.buffer[..]]));
                self.buffered = 0;
            } else {
                // Data exhausted without filling the buffer; nothing more to
                // process and the tail code below must not clobber it.
                debug_assert!(data.is_empty());
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            compress(&mut self.state, &load([block]));
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Finish and produce the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        pad(
            &mut self.state,
            [&self.buffer[..self.buffered]],
            self.length_bytes,
        );
        let [out] = output(&self.state);
        out
    }
}

/// The message words of one 64-byte block per lane, word-major.
#[inline(always)]
fn load<const L: usize>(blocks: [&[u8]; L]) -> [[u32; L]; 16] {
    let mut m = [[0u32; L]; 16];
    for (l, block) in blocks.iter().enumerate() {
        for (w, bytes) in m.iter_mut().zip(block[..64].chunks_exact(4)) {
            w[l] = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
        }
    }
    m
}

/// Pad and compress each lane's final bytes (`tails`, equal in length and
/// shorter than a block) of a `len`-byte message: 0x80, zeros up to 56
/// (mod 64), then the 64-bit little-endian bit length. A tail of 56+ bytes
/// leaves no room for the length and spills into one more block.
#[inline(always)]
fn pad<const L: usize>(state: &mut Lanes<L>, tails: [&[u8]; L], len: u64) {
    let n = tails[0].len();
    let mut blocks = [[0u8; 64]; L];
    for (block, tail) in blocks.iter_mut().zip(tails) {
        block[..n].copy_from_slice(tail);
        block[n] = 0x80;
    }
    if n >= 56 {
        compress(state, &load(blocks.each_ref().map(|b| &b[..])));
        blocks = [[0u8; 64]; L];
    }
    for block in &mut blocks {
        block[56..].copy_from_slice(&len.wrapping_mul(8).to_le_bytes());
    }
    compress(state, &load(blocks.each_ref().map(|b| &b[..])));
}

/// Each lane's digest: its four state words, little-endian.
#[inline(always)]
fn output<const L: usize>(state: &Lanes<L>) -> [[u8; 16]; L] {
    let mut out = [[0u8; 16]; L];
    for (l, digest) in out.iter_mut().enumerate() {
        for (w, word) in state.iter().enumerate() {
            digest[w * 4..w * 4 + 4].copy_from_slice(&word[l].to_le_bytes());
        }
    }
    out
}

/// One 64-byte block of the compression function in each of `L` lanes,
/// written out as the 64 steps of RFC 1321 §3.4 so every shift amount,
/// sine constant and message-word index is a compile-time constant. Each
/// step is a loop over the lanes; at `L = 4` the compiler turns it into one
/// 128-bit SIMD operation per step (SSE2, part of the x86-64 baseline).
#[inline(always)]
fn compress<const L: usize>(state: &mut Lanes<L>, m: &[[u32; L]; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;

    // a = b + ((a + f(b, c, d) + m[g] + k) <<< s), summed so that
    // a + m[g] + k (known a step early) waits only on f(b, c, d).
    macro_rules! step {
        ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:expr, $k:expr, $s:expr) => {
            for l in 0..L {
                $a[l] = $b[l].wrapping_add(
                    $a[l]
                        .wrapping_add(m[$g][l])
                        .wrapping_add($k)
                        .wrapping_add($f($b[l], $c[l], $d[l]))
                        .rotate_left($s),
                );
            }
        };
    }
    // F and G in their one-fewer-operation select forms:
    // (b & c) | (!b & d) == d ^ (b & (c ^ d)), and likewise for G.
    #[inline(always)]
    fn f(b: u32, c: u32, d: u32) -> u32 {
        d ^ (b & (c ^ d))
    }
    #[inline(always)]
    fn g(b: u32, c: u32, d: u32) -> u32 {
        c ^ (d & (b ^ c))
    }
    #[inline(always)]
    fn h(b: u32, c: u32, d: u32) -> u32 {
        b ^ c ^ d
    }
    #[inline(always)]
    fn i(b: u32, c: u32, d: u32) -> u32 {
        c ^ (b | !d)
    }

    step!(f, a, b, c, d, 0, 0xd76aa478, 7);
    step!(f, d, a, b, c, 1, 0xe8c7b756, 12);
    step!(f, c, d, a, b, 2, 0x242070db, 17);
    step!(f, b, c, d, a, 3, 0xc1bdceee, 22);
    step!(f, a, b, c, d, 4, 0xf57c0faf, 7);
    step!(f, d, a, b, c, 5, 0x4787c62a, 12);
    step!(f, c, d, a, b, 6, 0xa8304613, 17);
    step!(f, b, c, d, a, 7, 0xfd469501, 22);
    step!(f, a, b, c, d, 8, 0x698098d8, 7);
    step!(f, d, a, b, c, 9, 0x8b44f7af, 12);
    step!(f, c, d, a, b, 10, 0xffff5bb1, 17);
    step!(f, b, c, d, a, 11, 0x895cd7be, 22);
    step!(f, a, b, c, d, 12, 0x6b901122, 7);
    step!(f, d, a, b, c, 13, 0xfd987193, 12);
    step!(f, c, d, a, b, 14, 0xa679438e, 17);
    step!(f, b, c, d, a, 15, 0x49b40821, 22);

    step!(g, a, b, c, d, 1, 0xf61e2562, 5);
    step!(g, d, a, b, c, 6, 0xc040b340, 9);
    step!(g, c, d, a, b, 11, 0x265e5a51, 14);
    step!(g, b, c, d, a, 0, 0xe9b6c7aa, 20);
    step!(g, a, b, c, d, 5, 0xd62f105d, 5);
    step!(g, d, a, b, c, 10, 0x02441453, 9);
    step!(g, c, d, a, b, 15, 0xd8a1e681, 14);
    step!(g, b, c, d, a, 4, 0xe7d3fbc8, 20);
    step!(g, a, b, c, d, 9, 0x21e1cde6, 5);
    step!(g, d, a, b, c, 14, 0xc33707d6, 9);
    step!(g, c, d, a, b, 3, 0xf4d50d87, 14);
    step!(g, b, c, d, a, 8, 0x455a14ed, 20);
    step!(g, a, b, c, d, 13, 0xa9e3e905, 5);
    step!(g, d, a, b, c, 2, 0xfcefa3f8, 9);
    step!(g, c, d, a, b, 7, 0x676f02d9, 14);
    step!(g, b, c, d, a, 12, 0x8d2a4c8a, 20);

    step!(h, a, b, c, d, 5, 0xfffa3942, 4);
    step!(h, d, a, b, c, 8, 0x8771f681, 11);
    step!(h, c, d, a, b, 11, 0x6d9d6122, 16);
    step!(h, b, c, d, a, 14, 0xfde5380c, 23);
    step!(h, a, b, c, d, 1, 0xa4beea44, 4);
    step!(h, d, a, b, c, 4, 0x4bdecfa9, 11);
    step!(h, c, d, a, b, 7, 0xf6bb4b60, 16);
    step!(h, b, c, d, a, 10, 0xbebfbc70, 23);
    step!(h, a, b, c, d, 13, 0x289b7ec6, 4);
    step!(h, d, a, b, c, 0, 0xeaa127fa, 11);
    step!(h, c, d, a, b, 3, 0xd4ef3085, 16);
    step!(h, b, c, d, a, 6, 0x04881d05, 23);
    step!(h, a, b, c, d, 9, 0xd9d4d039, 4);
    step!(h, d, a, b, c, 12, 0xe6db99e5, 11);
    step!(h, c, d, a, b, 15, 0x1fa27cf8, 16);
    step!(h, b, c, d, a, 2, 0xc4ac5665, 23);

    step!(i, a, b, c, d, 0, 0xf4292244, 6);
    step!(i, d, a, b, c, 7, 0x432aff97, 10);
    step!(i, c, d, a, b, 14, 0xab9423a7, 15);
    step!(i, b, c, d, a, 5, 0xfc93a039, 21);
    step!(i, a, b, c, d, 12, 0x655b59c3, 6);
    step!(i, d, a, b, c, 3, 0x8f0ccc92, 10);
    step!(i, c, d, a, b, 10, 0xffeff47d, 15);
    step!(i, b, c, d, a, 1, 0x85845dd1, 21);
    step!(i, a, b, c, d, 8, 0x6fa87e4f, 6);
    step!(i, d, a, b, c, 15, 0xfe2ce6e0, 10);
    step!(i, c, d, a, b, 6, 0xa3014314, 15);
    step!(i, b, c, d, a, 13, 0x4e0811a1, 21);
    step!(i, a, b, c, d, 4, 0xf7537e82, 6);
    step!(i, d, a, b, c, 11, 0xbd3af235, 10);
    step!(i, c, d, a, b, 2, 0x2ad7d2bb, 15);
    step!(i, b, c, d, a, 9, 0xeb86d391, 21);

    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        for l in 0..L {
            s[l] = s[l].wrapping_add(v[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(
                &Md5::hex_digest(input.as_bytes()),
                expected,
                "md5({input:?})"
            );
        }
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            Md5::hex_digest(b"The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md5::digest(&data);
        for chunk_size in [1, 3, 63, 64, 65, 1000, 4096] {
            let mut ctx = Md5::new();
            for chunk in data.chunks(chunk_size) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xABu8; len];
            let d1 = Md5::digest(&data);
            let mut ctx = Md5::new();
            ctx.update(&data[..len / 2]);
            ctx.update(&data[len / 2..]);
            assert_eq!(ctx.finalize(), d1, "length {len}");
        }
    }

    #[test]
    fn four_lane_digests_match_one_shot_in_every_lane() {
        // The known-answer lengths (tests/md5_known_answers.rs): every
        // padding case over two blocks, plus the sync kernels' 1 KiB block,
        // 2 KiB chunk and an 18 KiB file.
        let message = |n: usize, k: u8| -> Vec<u8> {
            (0..n)
                .map(|i| ((i * 131 + 17) ^ (i >> 3)) as u8 ^ k.wrapping_mul(0x5b))
                .collect()
        };
        for n in (0..=130).chain([1024, 2048, 18 * 1024]) {
            let want = Md5::digest(&message(n, 0));
            // The other lanes carry different messages of the same length.
            let others: Vec<Vec<u8>> = (1..4).map(|k| message(n, k)).collect();
            for lane in 0..4 {
                let mut msgs: Vec<&[u8]> = others.iter().map(Vec::as_slice).collect();
                let data = message(n, 0);
                msgs.insert(lane, &data);
                let before = Md5::digest_invocations();
                let got = Md5::digest4([msgs[0], msgs[1], msgs[2], msgs[3]]);
                assert_eq!(Md5::digest_invocations() - before, 4);
                assert_eq!(got[lane], want, "{n} bytes in lane {lane}");
                for (l, (msg, digest)) in msgs.iter().zip(got).enumerate() {
                    assert_eq!(digest, Md5::digest(msg), "{n} bytes, lane {l}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn four_lane_digest_rejects_unequal_lengths() {
        Md5::digest4([b"abc", b"abc", b"ab", b"abc"]);
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Md5::digest(b"hello"), Md5::digest(b"hellp"));
        assert_ne!(Md5::digest(b""), Md5::digest(b"\0"));
    }
}
