//! The fetch protocol: a minimal, verifiable bulk-transfer application.
//!
//! The client sends one ASCII request line — `MPFETCH <size> <seed>\n` —
//! and the server answers with exactly `size` bytes of a deterministic
//! keystream derived from `seed`, then closes. Because both sides can
//! regenerate the stream independently, the client verifies every byte as
//! it arrives (not just a final digest), so a corruption is pinned to an
//! exact offset, and no multi-MiB expected-buffer is held in memory. The
//! client's FNV-1a digest of the body is computed when asked for, from the
//! regenerated keystream; only bytes from the first mismatch on, the ones
//! that differ from it, are hashed as they arrive.
//!
//! Applications plug into the event loop through [`ConnApp`]: the loop
//! calls `drive` whenever the connection made progress (ingress, timer, or
//! freed buffer space) and the app moves its own state machine using the
//! non-blocking `read`/`write`/`close` API.

use mptcp::{MptcpConnection, ReadOutcome, WriteOutcome};
use mptcp_netsim::SimTime;

/// Largest chunk generated or verified per drive step. Keeps single calls
/// bounded so one connection cannot monopolize the loop.
const CHUNK: usize = 64 * 1024;

/// An application state machine attached to one connection.
pub trait ConnApp {
    /// Make progress: read what is readable, write what fits.
    fn drive(&mut self, conn: &mut MptcpConnection, now: SimTime);
    /// True once the app needs no further progress (the loop may exit or
    /// reap the connection once it is also fully closed).
    fn finished(&self) -> bool;
}

// ---------------------------------------------------------------------------
// Deterministic payload.
// ---------------------------------------------------------------------------

/// xorshift64* keystream, 8 bytes per step. Fast, seedable, and with no
/// short cycles for nonzero seeds — ideal for generating test payloads that
/// both ends can reproduce.
pub struct Keystream {
    state: u64,
    /// The bytes of the last step a fill ended inside of, and how many of
    /// them are still owed to the next fill.
    word: [u8; 8],
    left: usize,
}

impl Keystream {
    /// Seed the stream; zero seeds are remapped (xorshift fixes zero).
    pub fn new(seed: u64) -> Keystream {
        Keystream {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
            word: [0; 8],
            left: 0,
        }
    }

    fn step(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Fill `out` with the next keystream bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let owed = self.left.min(out.len());
        let (head, rest) = out.split_at_mut(owed);
        head.copy_from_slice(&self.word[8 - self.left..][..owed]);
        self.left -= owed;
        let mut words = rest.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.step().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            self.word = self.step().to_le_bytes();
            tail.copy_from_slice(&self.word[..tail.len()]);
            self.left = 8 - tail.len();
        }
    }
}

/// Incremental FNV-1a (64-bit): the transfer checksum reported by both
/// sides for the smoke artifacts.
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a {
            hash: 0xcbf29ce484222325,
        }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100000001b3);
        }
    }

    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

enum FetchState {
    /// Request line bytes still to send.
    Sending(Vec<u8>),
    /// Receiving and verifying the body.
    Receiving,
    /// Stream ended (cleanly or not).
    Done,
}

/// Client app: request `size` bytes and verify them against the keystream.
pub struct FetchClient {
    size: u64,
    seed: u64,
    state: FetchState,
    expect: Keystream,
    scratch: Vec<u8>,
    received: u64,
    /// First offset whose byte did not match, and the digest of the body
    /// through what has arrived since.
    mismatch: Option<(u64, Fnv1a)>,
    eof_clean: bool,
}

impl FetchClient {
    /// Fetch `size` keystream bytes seeded with `seed`.
    pub fn new(size: u64, seed: u64) -> FetchClient {
        let req = format!("MPFETCH {size} {seed}\n").into_bytes();
        FetchClient {
            size,
            seed,
            state: FetchState::Sending(req),
            expect: Keystream::new(seed),
            scratch: vec![0u8; CHUNK],
            received: 0,
            mismatch: None,
            eof_clean: false,
        }
    }

    /// Bytes received and verified so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// FNV-1a digest of the received body: of the keystream, regenerated
    /// here, while every byte has matched.
    pub fn checksum(&self) -> u64 {
        match &self.mismatch {
            Some((_, digest)) => digest.digest(),
            None => keystream_digest(self.seed, self.received).digest(),
        }
    }

    /// True when the full body arrived byte-identical and the stream ended
    /// cleanly.
    pub fn ok(&self) -> bool {
        self.eof_clean && self.received == self.size && self.mismatch.is_none()
    }

    /// First mismatching offset, if verification failed.
    pub fn mismatch_at(&self) -> Option<u64> {
        self.mismatch.as_ref().map(|&(at, _)| at)
    }

    /// Compare `data` with the keystream up to the first mismatch, and
    /// hash it from there on.
    fn verify(&mut self, data: &[u8]) {
        let mut off = 0;
        while self.mismatch.is_none() && off < data.len() {
            let n = (data.len() - off).min(self.scratch.len());
            self.expect.fill(&mut self.scratch[..n]);
            let (got, want) = (&data[off..off + n], &self.scratch[..n]);
            if got == want {
                off += n;
                continue;
            }
            off += got.iter().zip(want).take_while(|(g, w)| g == w).count();
            let at = self.received + off as u64;
            self.mismatch = Some((at, keystream_digest(self.seed, at)));
        }
        if let Some((_, digest)) = &mut self.mismatch {
            digest.update(&data[off..]);
        }
        self.received += data.len() as u64;
    }
}

/// FNV-1a over the first `len` bytes of `seed`'s keystream.
fn keystream_digest(seed: u64, len: u64) -> Fnv1a {
    let (mut ks, mut digest, mut buf) = (Keystream::new(seed), Fnv1a::new(), [0u8; 4096]);
    for at in (0..len).step_by(buf.len()) {
        let n = (len - at).min(buf.len() as u64) as usize;
        ks.fill(&mut buf[..n]);
        digest.update(&buf[..n]);
    }
    digest
}

impl ConnApp for FetchClient {
    fn drive(&mut self, conn: &mut MptcpConnection, _now: SimTime) {
        loop {
            match &mut self.state {
                FetchState::Sending(rest) => {
                    match conn.write(rest) {
                        WriteOutcome::Accepted(n) | WriteOutcome::FellBack(n) => {
                            rest.drain(..n);
                            if rest.is_empty() {
                                self.state = FetchState::Receiving;
                                continue;
                            }
                        }
                        WriteOutcome::WouldBlock => {}
                        WriteOutcome::Closed => self.state = FetchState::Done,
                    }
                    return;
                }
                FetchState::Receiving => match conn.read(CHUNK) {
                    ReadOutcome::Data(data) => self.verify(&data),
                    ReadOutcome::WouldBlock => return,
                    ReadOutcome::Eof => {
                        self.eof_clean = true;
                        conn.close();
                        self.state = FetchState::Done;
                        return;
                    }
                    ReadOutcome::Closed => {
                        self.state = FetchState::Done;
                        return;
                    }
                },
                FetchState::Done => return,
            }
        }
    }

    fn finished(&self) -> bool {
        matches!(self.state, FetchState::Done)
    }
}

// ---------------------------------------------------------------------------
// Server side.
// ---------------------------------------------------------------------------

enum ServeState {
    /// Accumulating the request line.
    ReadingRequest(Vec<u8>),
    /// Streaming the body.
    Sending {
        remaining: u64,
        ks: Keystream,
        /// Generated but not yet accepted by the send buffer.
        pending: Vec<u8>,
    },
    /// Body fully written and close() issued.
    Done,
}

/// Server app: parse one request line, stream the keystream body, close.
pub struct FetchServer {
    state: ServeState,
    sent: u64,
}

impl FetchServer {
    pub fn new() -> FetchServer {
        FetchServer {
            state: ServeState::ReadingRequest(Vec::new()),
            sent: 0,
        }
    }

    /// Body bytes accepted by the connection so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn parse(line: &str) -> Option<(u64, u64)> {
        let mut parts = line.split_ascii_whitespace();
        if parts.next()? != "MPFETCH" {
            return None;
        }
        let size = parts.next()?.parse().ok()?;
        let seed = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((size, seed))
    }
}

impl Default for FetchServer {
    fn default() -> Self {
        FetchServer::new()
    }
}

impl ConnApp for FetchServer {
    fn drive(&mut self, conn: &mut MptcpConnection, _now: SimTime) {
        loop {
            match &mut self.state {
                ServeState::ReadingRequest(buf) => {
                    match conn.read(256) {
                        ReadOutcome::Data(data) => buf.extend_from_slice(&data),
                        ReadOutcome::WouldBlock => return,
                        ReadOutcome::Eof | ReadOutcome::Closed => {
                            conn.close();
                            self.state = ServeState::Done;
                            return;
                        }
                    }
                    if buf.len() > 256 {
                        // A request line this long is garbage; hang up.
                        conn.close();
                        self.state = ServeState::Done;
                        return;
                    }
                    if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
                        match FetchServer::parse(&line) {
                            Some((size, seed)) => {
                                self.state = ServeState::Sending {
                                    remaining: size,
                                    ks: Keystream::new(seed),
                                    pending: Vec::new(),
                                };
                                continue;
                            }
                            None => {
                                conn.close();
                                self.state = ServeState::Done;
                                return;
                            }
                        }
                    }
                }
                ServeState::Sending {
                    remaining,
                    ks,
                    pending,
                } => loop {
                    if pending.is_empty() {
                        if *remaining == 0 {
                            conn.close();
                            self.state = ServeState::Done;
                            return;
                        }
                        let n = (*remaining).min(CHUNK as u64) as usize;
                        pending.resize(n, 0);
                        ks.fill(pending);
                        *remaining -= n as u64;
                    }
                    match conn.write(pending) {
                        WriteOutcome::Accepted(n) | WriteOutcome::FellBack(n) => {
                            pending.drain(..n);
                            self.sent += n as u64;
                        }
                        WriteOutcome::WouldBlock => return,
                        WriteOutcome::Closed => {
                            self.state = ServeState::Done;
                            return;
                        }
                    }
                },
                ServeState::Done => return,
            }
        }
    }

    fn finished(&self) -> bool {
        matches!(self.state, ServeState::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keystream_is_deterministic() {
        let mut a = Keystream::new(7);
        let mut b = Keystream::new(7);
        let mut x = [0u8; 100];
        let mut y = [0u8; 100];
        a.fill(&mut x);
        // Different fill granularity must not change the stream.
        b.fill(&mut y[..33]);
        b.fill(&mut y[33..]);
        assert_eq!(x, y);
        let mut c = Keystream::new(8);
        let mut z = [0u8; 100];
        c.fill(&mut z);
        assert_ne!(x, z);
    }

    /// The stream's definition, one byte at a time: the oracle every
    /// faster `fill` is held to.
    struct ByteAtATime {
        state: u64,
        word: [u8; 8],
        pos: usize,
    }

    impl ByteAtATime {
        fn new(seed: u64) -> ByteAtATime {
            ByteAtATime {
                state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
                word: [0; 8],
                pos: 8,
            }
        }

        fn next(&mut self) -> u8 {
            if self.pos == 8 {
                let mut x = self.state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.state = x;
                self.word = x.wrapping_mul(0x2545f4914f6cdd1d).to_le_bytes();
                self.pos = 0;
            }
            self.pos += 1;
            self.word[self.pos - 1]
        }

        fn take(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next()).collect()
        }
    }

    #[test]
    fn keystream_known_answer() {
        let mut first = [0u8; 64];
        Keystream::new(7).fill(&mut first);
        let hex: String = first.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ae2e8d727faffbd1aea69d62776ca4ed22d36bc76a9ddf162e72763595788d1b\
             112c2b3f8d94e15f74524fbbee1c43682b8805c6f18f56da44555c7ef860b32b"
        );
        assert_eq!(first.to_vec(), ByteAtATime::new(7).take(64));

        // What `repro fetch --size 1048576 --seed 1` prints as `checksum`.
        let mut body = vec![0u8; 1 << 20];
        Keystream::new(1).fill(&mut body);
        let mut h = Fnv1a::new();
        h.update(&body);
        assert_eq!(h.digest(), 0xb98a6cb47ca1d881);
        // The zero seed is remapped, not a stuck stream.
        let mut z = [0u8; 16];
        Keystream::new(0).fill(&mut z);
        assert_eq!(z.to_vec(), ByteAtATime::new(0).take(16));
    }

    /// Wherever two fills split the stream — inside a generator word, on
    /// its edge, or with nothing on one side — the bytes are those of one
    /// fill over the same range.
    #[test]
    fn keystream_ignores_fill_granularity() {
        for head in 0..=9 {
            for len in 0..=41 {
                let want = ByteAtATime::new(7).take(head + len + 19);
                let mut got = vec![0u8; want.len()];
                let mut ks = Keystream::new(7);
                let (a, rest) = got.split_at_mut(head);
                let (b, c) = rest.split_at_mut(len);
                ks.fill(a);
                ks.fill(b);
                ks.fill(c);
                assert_eq!(got, want, "fill({head}), fill({len}), fill(19)");
            }
        }
    }

    /// Feed `reads` of the seed-5 keystream to a `FetchClient` with the
    /// byte at `corrupt` flipped (and a second one further on, which must
    /// not be the one reported).
    fn verify_with_corruption(reads: &[usize], corrupt: usize) -> FetchClient {
        let total: usize = reads.iter().sum();
        let mut body = ByteAtATime::new(5).take(total);
        let mut clean = Fnv1a::new();
        clean.update(&body);
        body[corrupt] ^= 0x01;
        if corrupt + 3 < total {
            body[corrupt + 3] ^= 0x80;
        }
        let mut client = FetchClient::new(total as u64, 5);
        let mut off = 0;
        for &n in reads {
            client.verify(&body[off..off + n]);
            off += n;
        }
        assert_eq!(client.received(), total as u64);
        let mut delivered = Fnv1a::new();
        delivered.update(&body);
        assert_eq!(
            client.checksum(),
            delivered.digest(),
            "digest is of what arrived, corrupted at {corrupt}"
        );
        assert_ne!(
            client.checksum(),
            clean.digest(),
            "digest is of what arrived"
        );
        client
    }

    #[test]
    fn verify_pins_the_first_mismatching_offset() {
        // One read longer than the 64 KiB scratch: `verify` walks it in
        // chunks, and the offset must not care where a chunk ends.
        let long = [2 * CHUNK + 4097];
        for at in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 4096] {
            let c = verify_with_corruption(&long, at);
            assert_eq!(c.mismatch_at(), Some(at as u64));
            assert!(!c.ok());
        }
        // After an odd-length read the keystream is mid-word and the
        // offset is relative to the whole body, not to the read.
        for at in [776, 777, 778, 777 + CHUNK - 1, 777 + CHUNK] {
            let c = verify_with_corruption(&[777, CHUNK + 13, 1], at);
            assert_eq!(c.mismatch_at(), Some(at as u64));
        }
        assert_eq!(
            verify_with_corruption(&[777, CHUNK + 13, 1], 777 + CHUNK + 13).mismatch_at(),
            Some((777 + CHUNK + 13) as u64),
            "the last byte of the last read"
        );
    }

    #[test]
    fn verify_accepts_the_clean_stream_at_any_read_size() {
        let body = ByteAtATime::new(9).take(3 * CHUNK + 5);
        let mut whole = Fnv1a::new();
        whole.update(&body);
        for read in [1usize, 7, 8, 1460, CHUNK, CHUNK + 1] {
            let mut client = FetchClient::new(body.len() as u64, 9);
            for piece in body.chunks(read) {
                client.verify(piece);
            }
            assert_eq!(client.mismatch_at(), None, "read size {read}");
            assert_eq!(client.received(), body.len() as u64);
            assert_eq!(client.checksum(), whole.digest());
        }
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.digest(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn request_line_parses() {
        assert_eq!(FetchServer::parse("MPFETCH 1024 7"), Some((1024, 7)));
        assert_eq!(FetchServer::parse("MPFETCH 1024"), None);
        assert_eq!(FetchServer::parse("GET / HTTP/1.1"), None);
        assert_eq!(FetchServer::parse("MPFETCH x y"), None);
    }
}
