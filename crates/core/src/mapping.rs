//! Receive-side data sequence mapping tracking (§3.3.4–3.3.5).
//!
//! Each subflow keeps a [`MappingTracker`]: the set of DSS mappings
//! received (from any segment — it "does not greatly matter which packet
//! carries it"), matched against the subflow's in-order byte stream. Bytes
//! covered by a mapping are translated to data sequence numbers and
//! checksummed incrementally; bytes with no mapping (a coalescing
//! middlebox ate the option) are counted and dropped — the sender
//! retransmits them at the data level (§3.3.5).

use std::collections::VecDeque;

use bytes::Bytes;
use mptcp_packet::checksum;
use mptcp_packet::DssMapping;

/// A mapping being filled in by arriving subflow bytes.
struct MapEntry {
    /// 0-based subflow stream offset of its first byte.
    start0: u64,
    dsn: u64,
    len: u32,
    checksum: Option<u16>,
    /// Bytes of the mapping consumed so far.
    consumed: u32,
    /// Incremental ones-complement accumulator over consumed payload.
    acc: u32,
    /// Carry byte when consumption split at an odd offset.
    odd: Option<u8>,
    /// Pieces held back until the checksum verdict: a modified segment
    /// must be *rejected*, never partially delivered (§3.3.6). Used only
    /// when the mapping arrives in more than one piece.
    held: Vec<Bytes>,
}

impl MapEntry {
    fn end0(&self) -> u64 {
        self.start0 + u64::from(self.len)
    }
}

/// What became of a run of consumed subflow bytes.
#[derive(Debug)]
pub enum Consumed {
    /// Bytes mapped into the data sequence space.
    Mapped {
        /// Data sequence number of the first byte.
        dsn: u64,
        /// The payload bytes.
        data: Bytes,
    },
    /// A mapping completed and its DSS checksum failed: a
    /// content-modifying middlebox touched the payload (§3.3.6).
    ChecksumFail {
        /// DSN of the corrupted mapping.
        dsn: u64,
        /// The (modified) bytes, needed if we fall back to TCP.
        data: Bytes,
    },
    /// Bytes with no covering mapping (option lost in the network).
    Unmapped {
        /// The raw bytes, needed for fallback delivery.
        data: Bytes,
    },
}

/// Per-subflow mapping state.
#[derive(Default)]
pub struct MappingTracker {
    /// Mappings awaiting data, sorted by stream offset. They arrive and
    /// complete in stream order but for reordering and retransmission, so
    /// a deque searched by bisection does a map's job without its nodes.
    maps: VecDeque<MapEntry>,
    /// Total unmapped bytes seen (fallback heuristics).
    pub unmapped_total: u64,
    /// Checksum failures seen.
    pub checksum_failures: u64,
    /// Mappings received (including duplicates).
    pub mappings_received: u64,
}

impl MappingTracker {
    /// Record a mapping from a DSS option. Duplicates (TSO copies, §3.3.4)
    /// are ignored.
    pub fn add(&mut self, m: &DssMapping) {
        self.mappings_received += 1;
        if m.len == 0 {
            return; // DATA_FIN-only signal, no byte mapping
        }
        let entry = MapEntry {
            start0: u64::from(m.subflow_seq).saturating_sub(1),
            dsn: m.dsn,
            len: u32::from(m.len),
            checksum: m.checksum,
            consumed: 0,
            acc: 0,
            odd: None,
            held: Vec::new(),
        };
        let at = self.maps.partition_point(|e| e.start0 < entry.start0);
        match self.maps.get_mut(at).filter(|e| e.start0 == entry.start0) {
            Some(e) if e.dsn == entry.dsn && e.len == entry.len => {} // duplicate
            Some(e) => *e = entry,
            None => self.maps.insert(at, entry),
        }
    }

    /// Number of mappings awaiting data.
    pub fn pending(&self) -> usize {
        self.maps.len()
    }

    /// Translate the front of `data` — in-order subflow bytes starting at
    /// 0-based `offset` — into the next data-level piece, advancing both
    /// past what it took. `None` once `data` is used up; pieces of a
    /// checksummed mapping held for the verdict produce nothing until the
    /// last one arrives. `verify` is whether the connection negotiated
    /// DSS checksums.
    ///
    /// A piece that is the whole of its mapping — the only case on a path
    /// no middlebox re-segments — is summed, verified and handed through
    /// as it is.
    pub fn consume_next(
        &mut self,
        offset: &mut u64,
        data: &mut Bytes,
        verify: bool,
    ) -> Option<Consumed> {
        while !data.is_empty() {
            // The mapping covering `offset`: the last one starting at or
            // before it, if it reaches that far.
            let after = self.maps.partition_point(|e| e.start0 <= *offset);
            let covering = after
                .checked_sub(1)
                .filter(|&i| *offset < self.maps[i].end0());
            let Some(at) = covering else {
                // Unmapped until the next mapping starts (or `data` ends).
                let gap = self.maps.get(after).map(|e| (e.start0 - *offset) as usize);
                let piece = split_front(data, gap.unwrap_or(usize::MAX));
                *offset += piece.len() as u64;
                self.unmapped_total += piece.len() as u64;
                return Some(Consumed::Unmapped { data: piece });
            };
            let entry = &mut self.maps[at];
            let piece = split_front(data, (entry.end0() - *offset) as usize);
            let piece_dsn = entry.dsn + (*offset - entry.start0);
            *offset += piece.len() as u64;
            if entry.checksum.is_some() {
                accumulate(&mut entry.acc, &mut entry.odd, &piece);
            }
            entry.consumed += piece.len() as u32;
            let complete = entry.consumed >= entry.len;
            let verdict_due = verify && entry.checksum.is_some();
            if !verdict_due {
                if complete {
                    self.maps.remove(at);
                }
                return Some(Consumed::Mapped {
                    dsn: piece_dsn,
                    data: piece,
                });
            }
            if !complete {
                entry.held.push(piece);
                continue;
            }
            let entry = self.maps.remove(at).expect("index just used");
            // Verified whole or rejected whole: never partially delivered.
            let data = if entry.held.is_empty() {
                piece
            } else {
                let mut merged = Vec::with_capacity(entry.len as usize);
                for h in entry.held.iter().chain([&piece]) {
                    merged.extend_from_slice(h);
                }
                Bytes::from(merged)
            };
            let dsn = entry.dsn;
            return Some(if entry.checksum == Some(finalize(&entry)) {
                Consumed::Mapped { dsn, data }
            } else {
                self.checksum_failures += 1;
                Consumed::ChecksumFail { dsn, data }
            });
        }
        None
    }
}

/// Split up to `max` bytes off the front of `data`, as a view of it.
pub(crate) fn split_front(data: &mut Bytes, max: usize) -> Bytes {
    let take = max.min(data.len());
    let piece = data.slice(..take);
    *data = data.slice(take..);
    piece
}

/// Add `piece` to a payload sum whose previous piece may have ended on
/// an odd byte (`odd`): that byte and the first one here make one word.
fn accumulate(acc: &mut u32, odd: &mut Option<u8>, mut piece: &[u8]) {
    if let (Some(carry), Some((&first, rest))) = (*odd, piece.split_first()) {
        *acc = checksum::add_u16(*acc, u16::from_be_bytes([carry, first]));
        *odd = None;
        piece = rest;
    }
    let (pairs, last) = piece.split_at(piece.len() / 2 * 2);
    *acc = checksum::ones_complement_add(*acc, pairs);
    if let [last] = last {
        *odd = Some(*last);
    }
}

/// The DSS checksum of a fully consumed mapping.
fn finalize(e: &MapEntry) -> u16 {
    let mut acc = e.acc;
    if let Some(b) = e.odd {
        acc = checksum::ones_complement_add(acc, &[b]);
    }
    acc = checksum::add_u64(acc, e.dsn);
    acc = checksum::add_u32(acc, (e.start0 + 1) as u32);
    acc = checksum::add_u16(acc, e.len as u16);
    checksum::fold(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::checksum::dss_checksum;

    /// Every piece `data` (subflow bytes from `offset`) translates to.
    fn consume(t: &mut MappingTracker, mut offset: u64, mut data: Bytes) -> Vec<Consumed> {
        std::iter::from_fn(|| t.consume_next(&mut offset, &mut data, true)).collect()
    }

    fn mapping(dsn: u64, ssn1: u32, payload: &[u8], with_cksum: bool) -> DssMapping {
        DssMapping {
            dsn,
            subflow_seq: ssn1,
            len: payload.len() as u16,
            checksum: with_cksum.then(|| dss_checksum(dsn, ssn1, payload.len() as u16, payload)),
        }
    }

    #[test]
    fn single_mapping_consumed_whole() {
        let mut t = MappingTracker::default();
        let payload = b"hello multipath";
        t.add(&mapping(1000, 1, payload, true));
        let out = consume(&mut t, 0, Bytes::from_static(payload));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Consumed::Mapped { dsn, data } => {
                assert_eq!(*dsn, 1000);
                assert_eq!(&data[..], payload);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn mapping_consumed_in_pieces_checksum_ok() {
        // TSO split the segment: bytes arrive in three odd-sized pieces,
        // the checksum must still verify.
        let mut t = MappingTracker::default();
        let payload = b"abcdefghijk"; // 11 bytes
        t.add(&mapping(500, 1, payload, true));
        // A checksummed mapping is held until complete (a modified
        // segment must be rejected whole, S3.3.6), then delivered once.
        let mut delivered = Vec::new();
        for (off, chunk) in [
            (0u64, &payload[..3]),
            (3, &payload[3..8]),
            (8, &payload[8..]),
        ] {
            let out = consume(&mut t, off, Bytes::copy_from_slice(chunk));
            if off + (chunk.len() as u64) < payload.len() as u64 {
                assert!(out.is_empty(), "held until the checksum verdict");
            }
            for c in out {
                match c {
                    Consumed::Mapped { dsn, data } => {
                        assert_eq!(dsn, 500);
                        delivered.extend_from_slice(&data);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(&delivered, payload);
    }

    #[test]
    fn checksum_failure_detected() {
        let mut t = MappingTracker::default();
        let original = b"PORT 10.0.0.1";
        let modified = b"PORT 99.9.9.9"; // same length, different bytes
        t.add(&mapping(0, 1, original, true));
        let out = consume(&mut t, 0, Bytes::from_static(modified));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Consumed::ChecksumFail { dsn: 0, .. }));
        assert_eq!(t.checksum_failures, 1);
    }

    #[test]
    fn checksum_skipped_when_disabled() {
        let mut t = MappingTracker::default();
        let original = b"data";
        t.add(&mapping(0, 1, original, true));
        let (mut offset, mut data) = (0, Bytes::from_static(b"XXXX"));
        let out = t.consume_next(&mut offset, &mut data, false);
        assert!(matches!(out, Some(Consumed::Mapped { .. })));
        assert_eq!(t.checksum_failures, 0);
    }

    #[test]
    fn unmapped_bytes_surface() {
        // A coalescer dropped the second chunk's mapping: its bytes arrive
        // with no covering mapping.
        let mut t = MappingTracker::default();
        t.add(&mapping(100, 1, b"aaaa", false));
        let out = consume(&mut t, 0, Bytes::from_static(b"aaaabbbb"));
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Consumed::Mapped { dsn: 100, .. }));
        match &out[1] {
            Consumed::Unmapped { data } => assert_eq!(&data[..], b"bbbb"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.unmapped_total, 4);
    }

    #[test]
    fn unmapped_gap_before_mapping() {
        let mut t = MappingTracker::default();
        // Mapping covers offsets 4..8 only (ssn1 = 5).
        t.add(&mapping(100, 5, b"bbbb", false));
        let out = consume(&mut t, 0, Bytes::from_static(b"aaaabbbb"));
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Consumed::Unmapped { .. }));
        assert!(matches!(&out[1], Consumed::Mapped { dsn: 100, .. }));
    }

    #[test]
    fn duplicate_mappings_ignored() {
        let mut t = MappingTracker::default();
        let m = mapping(1, 1, b"xyz", false);
        t.add(&m);
        t.add(&m);
        t.add(&m);
        assert_eq!(t.pending(), 1);
        assert_eq!(t.mappings_received, 3);
    }

    #[test]
    fn two_mappings_interleave_with_stream() {
        let mut t = MappingTracker::default();
        // Data sequence space has the two chunks swapped relative to the
        // subflow stream (batching from different connection positions).
        t.add(&mapping(2000, 1, b"late", true));
        t.add(&mapping(1000, 5, b"early", true));
        let out = consume(&mut t, 0, Bytes::from_static(b"lateearly"));
        assert_eq!(out.len(), 2);
        match (&out[0], &out[1]) {
            (Consumed::Mapped { dsn: a, .. }, Consumed::Mapped { dsn: b, .. }) => {
                assert_eq!((*a, *b), (2000, 1000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_length_mapping_is_signal_only() {
        let mut t = MappingTracker::default();
        t.add(&DssMapping {
            dsn: 999,
            subflow_seq: 0,
            len: 0,
            checksum: None,
        });
        assert_eq!(t.pending(), 0);
    }
}
