//! "AllShortcuts" algorithm: shortcuts plus batch-grouped fallback.
//!
//! For the ~20% of packets where the per-subflow pointer misses, plain
//! Shortcuts degenerates to scanning every queued segment. This variant
//! implements the paper's fix: "the out-of-order queue groups in-sequence
//! segments into batches. Then, we iterate over these batches instead of
//! iterating over all the segments. As there are significantly less
//! batches than packets in the out-of-order queue, the lookup process will
//! be much faster." (§4.3)
//!
//! Batches are maximal runs of contiguous data sequence numbers, stored in
//! a BTreeMap keyed by start DSN; each batch keeps its member segments in
//! arrival order for O(1) pops.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;

use super::Slot;

struct Batch {
    end: u64,
    segs: VecDeque<(u64, Bytes)>,
}

/// Contiguous batches with per-subflow shortcuts.
#[derive(Default)]
pub(super) struct Batches {
    batches: BTreeMap<u64, Batch>,
    /// batch end DSN -> batch start key (for O(1) append-to-batch).
    by_end: HashMap<u64, u64>,
    /// subflow -> DSN where its next segment is expected.
    cursors: HashMap<usize, u64>,
}

impl Batches {
    /// The shortcut first: the subflow expected to continue exactly at
    /// `dsn`, and a batch ends there — `run`, the batch the previous piece
    /// of a batch insert landed in, or found in O(1) through the end index.
    /// Otherwise iterate over batches (not segments), newest first.
    pub(super) fn locate(&self, dsn: u64, subflow: usize, run: Option<(u64, u64)>) -> Slot {
        if self.cursors.get(&subflow) == Some(&dsn) {
            let key = match run {
                Some((key, end)) if end == dsn => Some(key),
                _ => self.by_end.get(&dsn).copied(),
            };
            if let Some(key) = key {
                return Slot {
                    prev_end: Some(dsn),
                    next_start: None,
                    at: key,
                    ops: 1,
                    hit: true,
                };
            }
        }
        let (mut ops, mut next_start, mut prev) = (1, None, None);
        for (&start, batch) in self.batches.iter().rev() {
            ops += 1;
            if start <= dsn {
                prev = Some((start, batch.end));
                break;
            }
            next_start = Some(start);
        }
        Slot {
            prev_end: prev.map(|(_, end)| end),
            next_start,
            at: prev.map_or(0, |(start, _)| start),
            ops,
            hit: false,
        }
    }

    /// Append the piece to the batch before it when that batch ends where
    /// the piece starts, else open a batch; then merge with a successor
    /// that now touches it. Returns the batch's key and end.
    pub(super) fn place(
        &mut self,
        slot: &Slot,
        dsn: u64,
        data: Bytes,
        subflow: usize,
    ) -> (u64, u64) {
        let end = dsn + data.len() as u64;
        self.cursors.insert(subflow, end);
        let key = if slot.prev_end == Some(dsn) {
            self.by_end.remove(&dsn);
            slot.at
        } else {
            dsn
        };
        let succ = self.batches.remove(&end);
        let batch = self.batches.entry(key).or_insert_with(|| Batch {
            end,
            segs: VecDeque::new(),
        });
        batch.segs.push_back((dsn, data));
        batch.end = end;
        if let Some(mut succ) = succ {
            self.by_end.remove(&succ.end);
            batch.segs.append(&mut succ.segs);
            batch.end = succ.end;
        }
        self.by_end.insert(batch.end, key);
        (key, batch.end)
    }

    pub(super) fn front(&self) -> Option<(u64, &Bytes)> {
        let (_, batch) = self.batches.first_key_value()?;
        batch.segs.front().map(|(dsn, data)| (*dsn, data))
    }

    /// Take the first batch's first segment, re-keying the rest of the
    /// batch at its new start.
    pub(super) fn pop_front(&mut self) -> Option<Bytes> {
        let (_, mut batch) = self.batches.pop_first()?;
        let (_, data) = batch.segs.pop_front()?;
        match batch.segs.front() {
            Some(&(start, _)) => {
                self.by_end.insert(batch.end, start);
                self.batches.insert(start, batch);
            }
            None => {
                self.by_end.remove(&batch.end);
            }
        }
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{make_queue, Index, OooQueue};
    use super::*;
    use crate::config::ReorderAlgo;

    fn b(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    fn queue() -> OooQueue {
        make_queue(ReorderAlgo::AllShortcuts)
    }

    fn batches(q: &OooQueue) -> usize {
        match &q.index {
            Index::AllShortcuts(b) => b.batches.len(),
            _ => unreachable!("an AllShortcuts queue"),
        }
    }

    #[test]
    fn batches_merge_when_hole_fills() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        q.insert(20, b(10), 1);
        assert_eq!(batches(&q), 2);
        q.insert(10, b(10), 2); // fills the hole: one batch remains
        assert_eq!(batches(&q), 1);
        assert_eq!(q.len(), 3);
        // Drains in order.
        assert_eq!(q.pop_ready(0).unwrap().0, 0);
        assert_eq!(q.pop_ready(10).unwrap().0, 10);
        assert_eq!(q.pop_ready(20).unwrap().0, 20);
        assert!(q.pop_ready(30).is_none());
        assert_eq!(q.buffered_bytes(), 0);
    }

    #[test]
    fn fallback_scans_batches_not_segments() {
        let mut q = queue();
        // One huge contiguous batch of 1000 segments.
        for i in 0..1000u64 {
            q.insert(1000 + i * 10, b(10), 0);
        }
        let before = q.ops();
        // A miss insert in front of everything: one batch visited, not 1000
        // nodes.
        q.insert(0, b(10), 1);
        assert!(q.ops() - before <= 4, "ops delta = {}", q.ops() - before);
    }

    #[test]
    fn shortcut_extends_batch_in_constant_ops() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        let before = q.ops();
        for i in 1..100u64 {
            q.insert(i * 10, b(10), 0);
        }
        assert_eq!(q.ops() - before, 99);
        assert_eq!(q.shortcut_hits(), 99);
        assert_eq!(batches(&q), 1);
    }

    #[test]
    fn duplicate_interior_covered() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        q.insert(10, b(10), 0);
        q.insert(5, b(10), 1); // interior of the single batch
        assert_eq!(q.len(), 2);
        assert_eq!(q.buffered_bytes(), 20);
    }

    #[test]
    fn partial_overlap_extends() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        q.insert(5, b(10), 1); // 5 bytes duplicate, 5 new
        assert_eq!(q.buffered_bytes(), 15);
        assert_eq!(q.pop_ready(0).unwrap().1.len(), 10);
        let (dsn, d) = q.pop_ready(10).unwrap();
        assert_eq!(dsn, 10);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn pop_rekeys_batch() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        q.insert(10, b(10), 0);
        q.pop_ready(0).unwrap();
        // Remaining batch must be findable at its new start.
        assert_eq!(q.pop_ready(10).unwrap().0, 10);
    }
}
