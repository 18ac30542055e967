//! "Regular" algorithm: linear scan of the out-of-order queue.
//!
//! Models stock TCP receive processing (Van Jacobson fast path assumes
//! in-order data; out-of-order segments trigger a scan). Like Linux's
//! `tcp_data_queue_ofo`, the scan starts from the tail, which is cheap for
//! appends but walks the whole queue for interleaved multipath arrivals.

use std::collections::VecDeque;

use bytes::Bytes;

use super::Slot;

/// Scan from the tail for the index `dsn` belongs at: one op per entry
/// compared, plus the boundary.
pub(super) fn locate(entries: &VecDeque<(u64, Bytes)>, dsn: u64) -> Slot {
    let (mut idx, mut ops) = (entries.len(), 1);
    while idx > 0 && entries[idx - 1].0 > dsn {
        idx -= 1;
        ops += 1;
    }
    let prev = idx.checked_sub(1).map(|i| &entries[i]);
    Slot {
        prev_end: prev.map(|(dsn, data)| dsn + data.len() as u64),
        next_start: entries.get(idx).map(|&(dsn, _)| dsn),
        at: idx as u64,
        ops,
        hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::make_queue;
    use super::*;
    use crate::config::ReorderAlgo;

    #[test]
    fn tail_appends_are_cheap() {
        let mut q = make_queue(ReorderAlgo::Regular);
        for i in 0..100u64 {
            q.insert(i * 10, Bytes::from(vec![0u8; 10]), 0);
        }
        // Each append costs one boundary comparison.
        assert_eq!(q.ops(), 100);
    }

    #[test]
    fn front_insert_scans_everything() {
        let mut q = make_queue(ReorderAlgo::Regular);
        for i in 1..=50u64 {
            q.insert(i * 100, Bytes::from(vec![0u8; 10]), 0);
        }
        let before = q.ops();
        q.insert(0, Bytes::from(vec![0u8; 10]), 0);
        assert_eq!(q.ops() - before, 51, "walked the whole queue");
    }

    #[test]
    fn partial_pop_after_duplicate_delivery() {
        let mut q = make_queue(ReorderAlgo::Regular);
        q.insert(0, Bytes::from(vec![1u8; 10]), 0);
        // rcv_nxt advanced to 5 some other way.
        let (dsn, data) = q.pop_ready(5).unwrap();
        assert_eq!(dsn, 5);
        assert_eq!(data.len(), 5);
    }
}
