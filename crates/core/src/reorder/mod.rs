//! The connection-level out-of-order queue (§4.3, Figure 8).
//!
//! Subflows deliver bytes in subflow order, but data sequence numbers
//! interleave across subflows, so almost every arriving segment is
//! out-of-order at the data level — the exact inverse of single-path TCP,
//! whose fast path assumes in-order arrival. The paper explores four
//! receive algorithms:
//!
//! * **Regular** — scan the queue linearly for the insertion point.
//! * **Tree** — balanced-tree lookup (log time, more code, still not
//!   constant).
//! * **Shortcuts** — exploit *batching*: a subflow sends runs of
//!   contiguous data sequence numbers, so each subflow keeps a pointer to
//!   where its next segment should land; a correct pointer makes insertion
//!   O(1). Works for ~80% of packets.
//! * **AllShortcuts** — when the pointer misses, iterate over contiguous
//!   *batches* instead of individual segments.
//!
//! They differ only in how a piece finds its place. [`OooQueue`] is one
//! struct for all four: it keeps the tallies, the neighbour clip and the
//! pop rule once, and an enum holds the index structure of each algorithm.
//! An index answers where a piece lands (its lookup counts the *ops* —
//! node visits / comparisons — and shortcut hits the Figure 8 experiment
//! reports as relative CPU cost), stores it there, and names and removes
//! its front entry. The benchmark's `mptcp.reorder_*_msegs` probes measure
//! real wall-clock time as well.

mod batch;
mod linear;
mod shortcut;
mod tree;

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use crate::config::ReorderAlgo;

/// A connection-level out-of-order queue.
///
/// Invariants every algorithm keeps:
/// * entries are non-overlapping and sorted by data sequence number (but
///   AllShortcuts' shortcut does not clip against the next batch);
/// * duplicate or fully-covered inserts are dropped;
/// * `pop_ready(rcv_nxt)` returns the entry starting exactly at `rcv_nxt`,
///   if present.
pub struct OooQueue {
    index: Index,
    /// Payload bytes held (receiver memory, Figure 5b).
    bytes: usize,
    /// Entries held.
    len: usize,
    /// Cumulative lookup cost: the CPU proxy plotted in Figure 8.
    ops: u64,
    /// Inserts placed through a shortcut pointer.
    hits: u64,
    /// Insert calls.
    inserts: u64,
}

/// What differs between the four algorithms: where entries live.
enum Index {
    /// Regular: `(dsn, bytes)` in order, scanned from the tail.
    Regular(VecDeque<(u64, Bytes)>),
    /// Tree: a balanced tree keyed by data sequence number.
    Tree(BTreeMap<u64, Bytes>),
    /// Shortcuts: a linked list and a cursor per subflow.
    Shortcuts(shortcut::List),
    /// AllShortcuts: contiguous batches, their end index and a cursor per
    /// subflow.
    AllShortcuts(batch::Batches),
}

/// Where an index's lookup says a piece lands.
struct Slot {
    /// End of the entry before it.
    prev_end: Option<u64>,
    /// Start of the entry after it.
    next_start: Option<u64>,
    /// The position in the index's own terms: a deque index, the list node
    /// to link after, the key of the batch before it (a tree needs none).
    at: u64,
    /// What the lookup cost (Figure 8's ops).
    ops: u64,
    /// Found through a shortcut pointer.
    hit: bool,
}

/// Construct a queue for the configured algorithm.
pub fn make_queue(algo: ReorderAlgo) -> OooQueue {
    let index = match algo {
        ReorderAlgo::Regular => Index::Regular(VecDeque::new()),
        ReorderAlgo::Tree => Index::Tree(BTreeMap::new()),
        ReorderAlgo::Shortcuts => Index::Shortcuts(shortcut::List::new()),
        ReorderAlgo::AllShortcuts => Index::AllShortcuts(batch::Batches::default()),
    };
    OooQueue {
        index,
        bytes: 0,
        len: 0,
        ops: 0,
        hits: 0,
        inserts: 0,
    }
}

impl OooQueue {
    /// Insert a segment at data sequence `dsn`, arriving on `subflow`.
    pub fn insert(&mut self, dsn: u64, data: Bytes, subflow: usize) {
        self.put(dsn, data, subflow, None);
    }

    /// Insert a run of segments that arrived together (one ingress drain),
    /// consuming `items` but keeping its capacity for reuse.
    ///
    /// Observationally identical to calling [`OooQueue::insert`] in order,
    /// counts included. AllShortcuts hands each lookup the batch the
    /// previous piece landed in, so a contiguous run costs one walk and
    /// then appends without probing the end index.
    pub fn insert_batch(&mut self, items: &mut Vec<(u64, Bytes, usize)>) {
        let mut run = None;
        for (dsn, data, subflow) in items.drain(..) {
            run = self.put(dsn, data, subflow, run);
        }
    }

    /// Insert one piece. `run` is AllShortcuts' `(batch key, batch end)`
    /// holding the previous piece of a batch insert; returns the one holding
    /// this piece (`run` again when it was dropped).
    fn put(
        &mut self,
        dsn: u64,
        data: Bytes,
        subflow: usize,
        run: Option<(u64, u64)>,
    ) -> Option<(u64, u64)> {
        self.inserts += 1;
        if data.is_empty() {
            return run;
        }
        let slot = match &self.index {
            Index::Regular(entries) => linear::locate(entries, dsn),
            Index::Tree(map) => tree::locate(map, dsn),
            Index::Shortcuts(list) => list.locate(dsn, data.len(), subflow),
            Index::AllShortcuts(batches) => batches.locate(dsn, subflow, run),
        };
        self.ops += slot.ops;
        self.hits += u64::from(slot.hit);
        let Some((dsn, data)) = clip(dsn, data, &slot) else {
            return run;
        };
        self.bytes += data.len();
        self.len += 1;
        match &mut self.index {
            Index::Regular(entries) => entries.insert(slot.at as usize, (dsn, data)),
            Index::Tree(map) => {
                map.insert(dsn, data);
            }
            Index::Shortcuts(list) => list.place(slot.at as usize, dsn, data, subflow),
            Index::AllShortcuts(batches) => return Some(batches.place(&slot, dsn, data, subflow)),
        }
        None
    }

    /// Pop the entry starting at `rcv_nxt`, if queued. Entries that have
    /// been fully superseded (end ≤ rcv_nxt) are discarded on the way, and
    /// one that straddles `rcv_nxt` comes out trimmed to it.
    pub fn pop_ready(&mut self, rcv_nxt: u64) -> Option<(u64, Bytes)> {
        loop {
            let (dsn, end) = match &self.index {
                Index::Regular(entries) => entries.front().map(|(dsn, data)| (*dsn, data)),
                Index::Tree(map) => map.first_key_value().map(|(dsn, data)| (*dsn, data)),
                Index::Shortcuts(list) => list.front(),
                Index::AllShortcuts(batches) => batches.front(),
            }
            .map(|(dsn, data)| (dsn, dsn + data.len() as u64))?;
            if dsn > rcv_nxt {
                return None; // hole remains
            }
            let data = match &mut self.index {
                Index::Regular(entries) => entries.pop_front()?.1,
                Index::Tree(map) => map.pop_first()?.1,
                Index::Shortcuts(list) => list.pop_front()?,
                Index::AllShortcuts(batches) => batches.pop_front()?,
            };
            self.bytes -= data.len();
            self.len -= 1;
            if end > rcv_nxt {
                // Trim a partial overlap with already-delivered data.
                let data = if dsn < rcv_nxt {
                    data.slice((rcv_nxt - dsn) as usize..)
                } else {
                    data
                };
                return Some((rcv_nxt, data));
            }
            // Superseded (delivered via a duplicate on another subflow).
        }
    }

    /// Total payload bytes held (receiver memory, Figure 5b).
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative operation count (node visits / comparisons): the CPU
    /// proxy plotted in Figure 8.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Inserts satisfied by a shortcut pointer (0 for the algorithms that
    /// have none).
    pub fn shortcut_hits(&self) -> u64 {
        self.hits
    }

    /// Count of insert calls.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }
}

/// Clip a non-empty piece against the end of the entry before it and the
/// start of the entry after it; `None` when nothing new is left.
fn clip(mut dsn: u64, mut data: Bytes, slot: &Slot) -> Option<(u64, Bytes)> {
    if let Some(prev_end) = slot.prev_end.filter(|&end| end > dsn) {
        if prev_end >= dsn + data.len() as u64 {
            return None; // fully covered by the predecessor
        }
        data = data.slice((prev_end - dsn) as usize..);
        dsn = prev_end;
    }
    if let Some(next_start) = slot.next_start {
        if dsn >= next_start {
            return None; // would start inside or after the successor
        }
        if dsn + data.len() as u64 > next_start {
            data = data.slice(..(next_start - dsn) as usize);
        }
    }
    Some((dsn, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    fn all_queues() -> Vec<(&'static str, OooQueue)> {
        vec![
            ("regular", make_queue(ReorderAlgo::Regular)),
            ("tree", make_queue(ReorderAlgo::Tree)),
            ("shortcuts", make_queue(ReorderAlgo::Shortcuts)),
            ("allshortcuts", make_queue(ReorderAlgo::AllShortcuts)),
        ]
    }

    /// Drain everything in order starting from `rcv_nxt`, returning
    /// (dsn, len) pairs.
    fn drain(q: &mut OooQueue, mut rcv_nxt: u64) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some((dsn, data)) = q.pop_ready(rcv_nxt) {
            assert_eq!(dsn, rcv_nxt);
            rcv_nxt = dsn + data.len() as u64;
            out.push((dsn, data.len()));
        }
        out
    }

    #[test]
    fn in_order_insert_and_drain() {
        for (name, mut q) in all_queues() {
            q.insert(0, bytes(10, 1), 0);
            q.insert(10, bytes(10, 2), 0);
            q.insert(20, bytes(5, 3), 0);
            assert_eq!(q.buffered_bytes(), 25, "{name}");
            let got = drain(&mut q, 0);
            assert_eq!(got, vec![(0, 10), (10, 10), (20, 5)], "{name}");
            assert_eq!(q.buffered_bytes(), 0, "{name}");
        }
    }

    #[test]
    fn interleaved_subflows() {
        // Two subflows with batches: sf0 gets [0,10),[10,10); sf1 gets
        // [100,10),[110,10) — arrivals interleave.
        for (name, mut q) in all_queues() {
            q.insert(100, bytes(10, 1), 1);
            q.insert(0, bytes(10, 0), 0);
            q.insert(110, bytes(10, 1), 1);
            q.insert(10, bytes(10, 0), 0);
            assert_eq!(q.len(), 4, "{name}");
            let got = drain(&mut q, 0);
            assert_eq!(got, vec![(0, 10), (10, 10)], "{name}");
            let got = drain(&mut q, 100);
            assert_eq!(got, vec![(100, 10), (110, 10)], "{name}");
        }
    }

    #[test]
    fn reverse_order_insert() {
        for (name, mut q) in all_queues() {
            for i in (0..20u64).rev() {
                q.insert(i * 10, bytes(10, i as u8), 0);
            }
            assert_eq!(q.len(), 20, "{name}");
            let got = drain(&mut q, 0);
            assert_eq!(got.len(), 20, "{name}");
        }
    }

    #[test]
    fn duplicates_dropped() {
        for (name, mut q) in all_queues() {
            q.insert(50, bytes(10, 1), 0);
            q.insert(50, bytes(10, 1), 1); // exact duplicate from elsewhere
            assert_eq!(q.len(), 1, "{name}");
            assert_eq!(q.buffered_bytes(), 10, "{name}");
        }
    }

    #[test]
    fn covered_inserts_dropped() {
        for (name, mut q) in all_queues() {
            q.insert(0, bytes(100, 1), 0);
            q.insert(20, bytes(10, 2), 1); // interior duplicate
            assert_eq!(q.len(), 1, "{name}");
            let got = drain(&mut q, 0);
            assert_eq!(got, vec![(0, 100)], "{name}");
        }
    }

    #[test]
    fn pop_discards_stale_entries() {
        for (name, mut q) in all_queues() {
            q.insert(0, bytes(10, 1), 0);
            q.insert(10, bytes(10, 2), 0);
            // rcv_nxt has moved past the first entry (delivered via another
            // duplicate path).
            let got = q.pop_ready(10);
            assert!(got.is_some(), "{name}");
            assert_eq!(got.unwrap().0, 10, "{name}");
            assert!(q.is_empty(), "{name}");
        }
    }

    #[test]
    fn pop_on_hole_returns_none() {
        for (name, mut q) in all_queues() {
            q.insert(10, bytes(10, 1), 0);
            assert!(q.pop_ready(0).is_none(), "{name}");
            assert_eq!(q.len(), 1, "{name}");
        }
    }

    #[test]
    fn shortcut_hits_dominate_batched_arrivals() {
        // The 80% claim: with batched subflow sends, the per-subflow
        // pointer is almost always right.
        for algo in [ReorderAlgo::Shortcuts, ReorderAlgo::AllShortcuts] {
            let mut q = make_queue(algo);
            // sf1's batch lands far ahead; sf0 fills in behind, contiguous.
            q.insert(1_000, bytes(100, 0), 1);
            for i in 0..100u64 {
                q.insert(1_100 + i * 100, bytes(100, 0), 1);
            }
            let hits = q.shortcut_hits();
            let inserts = q.inserts();
            assert!(inserts == 101);
            assert!(
                hits as f64 / inserts as f64 > 0.9,
                "{algo:?}: {hits}/{inserts} hits"
            );
        }
    }

    #[test]
    fn linear_ops_exceed_shortcut_ops() {
        // The Figure 8 ordering: Regular >> Shortcuts for batched inserts.
        let workload: Vec<(u64, usize)> = {
            // Two interleaved subflow batches growing the queue.
            let mut w = Vec::new();
            for i in 0..200u64 {
                w.push((10_000 + i * 10, 1)); // sf1 far batch
                if i % 10 == 0 {
                    w.push((i, 0)); // occasional sf0 in-fill (stays queued)
                }
            }
            w
        };
        let mut lin = make_queue(ReorderAlgo::Regular);
        let mut sc = make_queue(ReorderAlgo::Shortcuts);
        for &(dsn, sf) in &workload {
            lin.insert(dsn, bytes(10, 0), sf);
            sc.insert(dsn, bytes(10, 0), sf);
        }
        assert_eq!(lin.len(), sc.len());
        assert!(
            lin.ops() > 3 * sc.ops(),
            "linear {} vs shortcuts {}",
            lin.ops(),
            sc.ops()
        );
    }

    #[test]
    fn insert_batch_equals_sequential_insert() {
        // Mixed workload: contiguous runs, gaps, duplicates, overlaps, an
        // empty segment, and a cross-subflow interleave — batch insertion
        // must yield exactly the same queue state as one-at-a-time.
        let workload: Vec<(u64, usize, usize)> = vec![
            (0, 10, 0),
            (10, 10, 0),
            (20, 10, 0), // run
            (100, 10, 1),
            (110, 10, 1), // second subflow's run
            (15, 10, 0),  // overlap into the first run
            (50, 0, 0),   // empty
            (10, 10, 1),  // duplicate from the other subflow
            (120, 10, 1),
            (130, 10, 1), // run continues after interruption
            (30, 10, 0),  // fills toward the far batch
        ];
        for algo in [
            ReorderAlgo::Regular,
            ReorderAlgo::Tree,
            ReorderAlgo::Shortcuts,
            ReorderAlgo::AllShortcuts,
        ] {
            let mut seq = make_queue(algo);
            for &(dsn, n, sf) in &workload {
                seq.insert(dsn, bytes(n, dsn as u8), sf);
            }
            let mut batched = make_queue(algo);
            let mut items: Vec<(u64, Bytes, usize)> = workload
                .iter()
                .map(|&(dsn, n, sf)| (dsn, bytes(n, dsn as u8), sf))
                .collect();
            batched.insert_batch(&mut items);
            assert!(items.is_empty(), "{algo:?}: batch consumes its input");
            assert_eq!(batched.len(), seq.len(), "{algo:?}");
            assert_eq!(batched.buffered_bytes(), seq.buffered_bytes(), "{algo:?}");
            assert_eq!(batched.inserts(), seq.inserts(), "{algo:?}");
            let a = drain(&mut batched, 0);
            let b = drain(&mut seq, 0);
            assert_eq!(a, b, "{algo:?}");
            let a = drain(&mut batched, 100);
            let b = drain(&mut seq, 100);
            assert_eq!(a, b, "{algo:?}");
        }
    }

    #[test]
    fn batch_run_costs_one_walk() {
        // The tentpole claim: a contiguous run through insert_batch pays
        // the lookup once, then constant-work appends.
        let mut q = make_queue(ReorderAlgo::AllShortcuts);
        q.insert(10_000, bytes(10, 0), 1); // far batch so the queue is non-trivial
        let mut items: Vec<(u64, Bytes, usize)> =
            (0..256u64).map(|i| (i * 10, bytes(10, 0), 0)).collect();
        q.insert_batch(&mut items);
        // First item walks (arming the cache), remaining 255 hit it.
        assert_eq!(q.shortcut_hits(), 255);
        assert!(q.ops() <= 260, "ops = {}", q.ops());
    }

    #[test]
    fn allshortcuts_beats_shortcuts_on_pointer_misses() {
        // Force pointer misses: single subflow inserting at alternating
        // far-apart positions. AllShortcuts scans batch summaries; plain
        // Shortcuts scans every node.
        let mut sc = make_queue(ReorderAlgo::Shortcuts);
        let mut asc = make_queue(ReorderAlgo::AllShortcuts);
        // Build many contiguous batches with holes between them; every
        // round also inserts into the gap of the *previous* region, which
        // defeats both subflows' pointers and forces the fallback scan.
        for batch in 1..50u64 {
            for k in 0..10u64 {
                let dsn = batch * 1_000 + k * 10;
                sc.insert(dsn, bytes(10, 0), 0);
                asc.insert(dsn, bytes(10, 0), 0);
            }
            let miss = (batch - 1) * 1_000 + 500;
            sc.insert(miss, bytes(10, 0), 1);
            asc.insert(miss, bytes(10, 0), 1);
        }
        assert_eq!(sc.len(), asc.len());
        assert!(
            asc.ops() < sc.ops(),
            "allshortcuts {} vs shortcuts {}",
            asc.ops(),
            sc.ops()
        );
    }
}
