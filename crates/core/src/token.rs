//! MPTCP keys, tokens and the server-side token table.
//!
//! During connection setup the endpoints exchange 64-bit random keys in
//! MP_CAPABLE. The server derives a 32-bit token (`SHA1(key)` truncated)
//! identifying the connection for MP_JOIN, and must "verify that its hash
//! is unique among all established connections" (§5.2). That uniqueness
//! check is what Figure 10 measures as a function of the number of
//! established connections, and the key-pool precomputation is the
//! optimization §5.2 suggests.

use std::collections::{HashMap, HashSet, VecDeque};

use mptcp_netsim::SimRng;
use mptcp_packet::crypto;

/// Key material for one side of an MPTCP connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeySet {
    /// The 64-bit random key exchanged in MP_CAPABLE.
    pub key: u64,
    /// Token: most significant 32 bits of SHA1(key).
    pub token: u32,
    /// Initial data sequence number: least significant 64 bits of SHA1(key).
    pub idsn: u64,
}

impl KeySet {
    /// Derive token and IDSN from one SHA1(key) (RFC 6824: the token is its
    /// most significant 32 bits, the IDSN its least significant 64).
    pub fn from_key(key: u64) -> KeySet {
        let d = crypto::sha1(&key.to_be_bytes());
        KeySet {
            key,
            token: u32::from_be_bytes([d[0], d[1], d[2], d[3]]),
            idsn: u64::from_be_bytes([d[12], d[13], d[14], d[15], d[16], d[17], d[18], d[19]]),
        }
    }
}

/// The per-host table of live connection tokens.
///
/// `generate` draws keys until the token is unique — the cost the paper
/// measures in Figure 10. The `scan_lookup` flag switches the uniqueness
/// check from a hash set to a linear scan, reproducing the growth with
/// connection count that the paper's kernel implementation exhibited.
pub struct TokenTable {
    set: HashSet<u32>,
    list: Vec<u32>,
    /// Use a linear scan for uniqueness checks (paper-era behaviour)
    /// instead of the hash-set fast path.
    pub scan_lookup: bool,
    /// Map from token to an opaque connection slot.
    owners: HashMap<u32, usize>,
}

impl TokenTable {
    /// An empty table.
    pub fn new() -> TokenTable {
        TokenTable {
            set: HashSet::new(),
            list: Vec::new(),
            scan_lookup: false,
            owners: HashMap::new(),
        }
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Is `token` present?
    pub fn contains(&self, token: u32) -> bool {
        if self.scan_lookup {
            self.list.contains(&token)
        } else {
            self.set.contains(&token)
        }
    }

    /// Generate a fresh key whose token is unique in this table, register
    /// it, and return the key set. This is the latency-critical path of
    /// Figure 10: key generation + SHA-1 + uniqueness verification.
    pub fn generate(&mut self, rng: &mut SimRng) -> KeySet {
        loop {
            let key = rng.next_u64();
            let ks = KeySet::from_key(key);
            if !self.contains(ks.token) {
                self.insert(ks.token, usize::MAX);
                return ks;
            }
        }
    }

    /// Register an externally-derived token (e.g. from a key pool).
    pub fn insert(&mut self, token: u32, owner: usize) -> bool {
        if self.contains(token) {
            return false;
        }
        self.set.insert(token);
        self.list.push(token);
        self.owners.insert(token, owner);
        true
    }

    /// Update the owner slot for a token.
    pub fn set_owner(&mut self, token: u32, owner: usize) {
        self.owners.insert(token, owner);
    }

    /// Find the connection slot owning `token` (MP_JOIN demux).
    pub fn owner(&self, token: u32) -> Option<usize> {
        self.owners.get(&token).copied()
    }

    /// Remove a token when its connection closes.
    pub fn remove(&mut self, token: u32) {
        self.set.remove(&token);
        self.list.retain(|&t| t != token);
        self.owners.remove(&token);
    }
}

impl Default for TokenTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Precomputed pool of key sets — the §5.2 optimization: "this additional
/// latency could be significantly reduced by maintaining a pool of
/// precomputed keys".
pub struct KeyPool {
    pool: VecDeque<KeySet>,
    target: usize,
}

impl KeyPool {
    /// A pool that keeps `target` keys precomputed.
    pub fn new(target: usize) -> KeyPool {
        KeyPool {
            pool: VecDeque::with_capacity(target),
            target,
        }
    }

    /// Refill the pool (run off the hot path).
    pub fn refill(&mut self, rng: &mut SimRng) {
        while self.pool.len() < self.target {
            self.pool.push_back(KeySet::from_key(rng.next_u64()));
        }
    }

    /// Take a precomputed key whose token is unique in `table`; falls back
    /// to on-demand generation if the pool is empty or collides.
    pub fn take(&mut self, table: &mut TokenTable, rng: &mut SimRng) -> KeySet {
        while let Some(ks) = self.pool.pop_front() {
            if table.insert(ks.token, usize::MAX) {
                return ks;
            }
        }
        table.generate(rng)
    }

    /// Keys currently pooled.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyset_derivation_matches_crypto() {
        // Known answers: SHA1 of the key's eight big-endian bytes, first
        // four bytes and last eight.
        for (key, token, idsn) in [
            (0xfeed, 0x6c26_6da0, 0xd70d_5a5d_38f6_c58e),
            (0x0102_0304_0506_0708, 0xdd57_83bc, 0x3a95_ed6e_4ebb_4ad5),
            (0xdead_beef_cafe_babe, 0x9f48_de0e, 0xac7a_6783_e39e_d492),
        ] {
            let ks = KeySet::from_key(key);
            assert_eq!((ks.key, ks.token, ks.idsn), (key, token, idsn));
        }
    }

    #[test]
    fn token_is_deterministic_and_spread() {
        let t1 = KeySet::from_key(0x0102030405060708).token;
        let t2 = KeySet::from_key(0x0102030405060709).token;
        assert_eq!(t1, KeySet::from_key(0x0102030405060708).token);
        assert_ne!(t1, t2);
    }

    #[test]
    fn idsn_differs_from_token() {
        let ks = KeySet::from_key(0xdeadbeefcafebabe);
        assert_ne!(u64::from(ks.token), ks.idsn);
    }

    #[test]
    fn generate_registers_unique_tokens() {
        let mut t = TokenTable::new();
        let mut rng = SimRng::new(1);
        let a = t.generate(&mut rng);
        let b = t.generate(&mut rng);
        assert_ne!(a.token, b.token);
        assert!(t.contains(a.token));
        assert!(t.contains(b.token));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn owner_lookup_for_join_demux() {
        let mut t = TokenTable::new();
        t.insert(42, 7);
        assert_eq!(t.owner(42), Some(7));
        t.set_owner(42, 9);
        assert_eq!(t.owner(42), Some(9));
        assert_eq!(t.owner(43), None);
        t.remove(42);
        assert_eq!(t.owner(42), None);
        assert!(!t.contains(42));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = TokenTable::new();
        assert!(t.insert(1, 0));
        assert!(!t.insert(1, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_mode_equivalent_semantics() {
        let mut t = TokenTable::new();
        t.scan_lookup = true;
        t.insert(5, 0);
        assert!(t.contains(5));
        assert!(!t.contains(6));
    }

    #[test]
    fn pool_provides_and_falls_back() {
        let mut pool = KeyPool::new(4);
        let mut rng = SimRng::new(2);
        pool.refill(&mut rng);
        assert_eq!(pool.len(), 4);
        let mut table = TokenTable::new();
        let a = pool.take(&mut table, &mut rng);
        assert!(table.contains(a.token));
        assert_eq!(pool.len(), 3);
        // Empty pool still works via fallback.
        let mut empty = KeyPool::new(0);
        let b = empty.take(&mut table, &mut rng);
        assert!(table.contains(b.token));
    }
}
