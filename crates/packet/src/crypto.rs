//! SHA-1 and HMAC-SHA1, implemented from scratch for MPTCP key handling.
//!
//! MPTCP's security model (§3.2) hangs off two 64-bit random keys exchanged
//! in MP_CAPABLE: the *token* identifying a connection is the most
//! significant 32 bits of `SHA1(key)`, the initial data sequence number is
//! derived from the least significant 64 bits, and MP_JOIN subflows are
//! authenticated with truncated `HMAC-SHA1(keyA || keyB, nonces)`. The paper
//! measures this exact computation in Figure 10 (connection-setup latency),
//! so we implement the real thing rather than a stand-in hash.

/// Output size of SHA-1 in bytes.
pub const SHA1_LEN: usize = 20;

const BLOCK: usize = 64;

/// Incremental SHA-1 (FIPS 180-1): feed borrowed slices with
/// [`Sha1::update`], no copy of the message is ever made — only a single
/// 64-byte block buffer lives on the stack.
pub struct Sha1 {
    h: [u32; 5],
    block: [u8; BLOCK],
    /// Total message bytes fed so far; `len % 64` is the block fill.
    len: u64,
}

impl Default for Sha1 {
    fn default() -> Sha1 {
        Sha1::new()
    }
}

impl Sha1 {
    pub fn new() -> Sha1 {
        Sha1 {
            h: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            block: [0u8; BLOCK],
            len: 0,
        }
    }

    /// Absorb `data` without copying it into an owned message buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        let fill = (self.len % BLOCK as u64) as usize;
        self.len += data.len() as u64;
        if fill != 0 {
            let take = (BLOCK - fill).min(data.len());
            self.block[fill..fill + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if fill + take < BLOCK {
                return;
            }
            let block = self.block;
            self.compress(&block);
        }
        let mut chunks = data.chunks_exact(BLOCK);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
    }

    /// Pad, process the final block(s), and return the digest.
    pub fn finalize(mut self) -> [u8; SHA1_LEN] {
        let ml = self.len.wrapping_mul(8);
        let fill = (self.len % BLOCK as u64) as usize;
        let mut tail = [0u8; BLOCK * 2];
        tail[..fill].copy_from_slice(&self.block[..fill]);
        tail[fill] = 0x80;
        let total = if fill < 56 { BLOCK } else { BLOCK * 2 };
        tail[total - 8..total].copy_from_slice(&ml.to_be_bytes());
        let (first, second) = tail.split_at(BLOCK);
        self.compress(first.try_into().unwrap());
        if total == BLOCK * 2 {
            self.compress(second.try_into().unwrap());
        }

        let mut out = [0u8; SHA1_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK]) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let h = &mut self.h;
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
}

/// Compute the SHA-1 digest of `data` (FIPS 180-1).
pub fn sha1(data: &[u8]) -> [u8; SHA1_LEN] {
    let mut s = Sha1::new();
    s.update(data);
    s.finalize()
}

/// HMAC-SHA1 per RFC 2104, hashing the key pads and message incrementally —
/// no concatenation buffers are allocated.
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> [u8; SHA1_LEN] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..SHA1_LEN].copy_from_slice(&sha1(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK];
    let mut opad = [0u8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    let mut inner = Sha1::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_hash = inner.finalize();

    let mut outer = Sha1::new();
    outer.update(&opad);
    outer.update(&inner_hash);
    outer.finalize()
}

/// MP_JOIN SYN/ACK MAC: the sender (listener) proves knowledge of both keys.
///
/// Truncated to the most significant 64 bits of
/// `HMAC-SHA1(key_b || key_a, nonce_a || nonce_b)` per RFC 6824 §3.2.
pub fn join_synack_mac(
    key_local: u64,
    key_remote: u64,
    nonce_remote: u32,
    nonce_local: u32,
) -> u64 {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&key_local.to_be_bytes());
    key[8..].copy_from_slice(&key_remote.to_be_bytes());
    let mut msg = [0u8; 8];
    msg[..4].copy_from_slice(&nonce_remote.to_be_bytes());
    msg[4..].copy_from_slice(&nonce_local.to_be_bytes());
    let d = hmac_sha1(&key, &msg);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

/// MP_JOIN third-ACK MAC: the initiator's full 160-bit HMAC.
pub fn join_ack_mac(
    key_local: u64,
    key_remote: u64,
    nonce_local: u32,
    nonce_remote: u32,
) -> [u8; SHA1_LEN] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&key_local.to_be_bytes());
    key[8..].copy_from_slice(&key_remote.to_be_bytes());
    let mut msg = [0u8; 8];
    msg[..4].copy_from_slice(&nonce_local.to_be_bytes());
    msg[4..].copy_from_slice(&nonce_remote.to_be_bytes());
    hmac_sha1(&key, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha1_known_vectors() {
        // FIPS 180-1 test vectors.
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn sha1_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn hmac_rfc2202_vectors() {
        // RFC 2202 test case 1.
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        // RFC 2202 test case 2.
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        // RFC 2202 test case 3: 0xaa*20 key, 0xdd*50 data.
        assert_eq!(
            hex(&hmac_sha1(&[0xaa; 20], &[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn incremental_update_equals_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let oneshot = sha1(&data);
        // Split at every boundary class: mid-block, exactly one block,
        // block+1, and a final sliver.
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), oneshot, "split {split}");
        }
        // Byte-at-a-time.
        let mut s = Sha1::new();
        for b in &data {
            s.update(std::slice::from_ref(b));
        }
        assert_eq!(s.finalize(), oneshot);
    }

    #[test]
    fn join_macs_are_asymmetric() {
        let (ka, kb, na, nb) = (1u64, 2u64, 3u32, 4u32);
        // The B-side SYN/ACK MAC and the A-side ACK MAC use the keys in
        // opposite order, so a reflected message cannot be replayed.
        let synack = join_synack_mac(kb, ka, na, nb);
        let ack = join_ack_mac(ka, kb, na, nb);
        assert_ne!(synack, u64::from_be_bytes(ack[..8].try_into().unwrap()));
    }

    #[test]
    fn join_handshake_verifies() {
        // Both sides compute the same SYN/ACK MAC when the listener signs
        // and the initiator verifies with swapped roles.
        let (ka, kb, na, nb) = (0x1111u64, 0x2222u64, 0xaaaa_bbbb, 0xcccc_dddd);
        let signed_by_b = join_synack_mac(kb, ka, na, nb);
        let verified_by_a = join_synack_mac(kb, ka, na, nb);
        assert_eq!(signed_by_b, verified_by_a);
    }
}
